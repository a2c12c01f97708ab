#include "sim/config.hh"

#include <sstream>

namespace eip::sim {

namespace {

void
describeCache(std::ostringstream &out, const CacheConfig &c)
{
    out << "  " << c.name << ": " << c.sizeBytes / 1024 << "KB, "
        << c.ways << "-way, " << c.sets() << " sets, latency "
        << c.hitLatency << ", MSHR " << c.mshrEntries
        << ", PQ " << c.pqEntries << "\n";
}

} // namespace

std::string
SimConfig::describe() const
{
    std::ostringstream out;
    out << "Core: fetch " << fetchWidth << "/cycle, retire " << retireWidth
        << "/cycle, ROB " << robEntries << ", FTQ " << ftqEntries
        << ", backend depth " << backendDepth
        << (modelWrongPath ? ", wrong-path modelled" : "") << "\n"
        << "Branch: gshare 2^" << gshareBits << ", BTB " << btbEntries
        << " (" << btbWays << "-way), RAS " << rasEntries << ", ITC "
        << itcEntries << ", resteer " << decodeResteerPenalty
        << ", flush " << executeFlushPenalty << "\n";
    describeCache(out, l1i);
    describeCache(out, l1d);
    describeCache(out, l2);
    describeCache(out, llc);
    out << "  DRAM: " << dramLatency << " cycles (+0.." << dramJitter
        << " jitter)\n"
        << "L1I address space: " << (physicalL1I ? "physical" : "virtual")
        << "\n";
    return out.str();
}

} // namespace eip::sim
