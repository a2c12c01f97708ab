#include "trace/trace_file.hh"

#include <cstring>

#include "util/panic.hh"

namespace eip::trace {

namespace {

/** On-disk record: pc, target and memAddr as little-endian u64, then
 *  size, branch type, flags (bit0 taken, bit1 load, bit2 store, bit3 fp)
 *  and one zero padding byte. */
constexpr size_t kRecordBytes = 8 + 8 + 8 + 1 + 1 + 1 + 1;

void
writeU64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t
readU64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[i]) << (8 * i);
    return v;
}

void
packRecord(const Instruction &inst, uint8_t *buf)
{
    writeU64(buf, inst.pc);
    writeU64(buf + 8, inst.target);
    writeU64(buf + 16, inst.memAddr);
    buf[24] = inst.size;
    buf[25] = static_cast<uint8_t>(inst.branch);
    uint8_t flags = 0;
    flags |= inst.taken ? 1 : 0;
    flags |= inst.isLoad ? 2 : 0;
    flags |= inst.isStore ? 4 : 0;
    flags |= inst.isFp ? 8 : 0;
    buf[26] = flags;
}

void
unpackRecord(const uint8_t *buf, Instruction &inst)
{
    inst.pc = readU64(buf);
    inst.target = readU64(buf + 8);
    inst.memAddr = readU64(buf + 16);
    inst.size = buf[24];
    inst.branch = static_cast<BranchType>(buf[25]);
    uint8_t flags = buf[26];
    inst.taken = (flags & 1) != 0;
    inst.isLoad = (flags & 2) != 0;
    inst.isStore = (flags & 4) != 0;
    inst.isFp = (flags & 8) != 0;
}

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8;    // magic, ver, pad, count

} // namespace

TraceWriter::TraceWriter(const std::string &path)
{
    file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        EIP_FATAL("cannot open trace file for writing");
    uint8_t header[kHeaderBytes] = {};
    writeU64(header, kTraceMagic);
    header[8] = kTraceVersion;
    // Count patched on close.
    if (std::fwrite(header, 1, sizeof(header), file) != sizeof(header))
        EIP_FATAL("trace header write failed");
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const Instruction &inst)
{
    EIP_ASSERT(file != nullptr, "append to a closed trace writer");
    uint8_t buf[kRecordBytes] = {}; // the padding byte stays zero
    packRecord(inst, buf);
    if (std::fwrite(buf, 1, sizeof(buf), file) != sizeof(buf))
        EIP_FATAL("trace record write failed");
    ++count;
}

void
TraceWriter::close()
{
    if (file == nullptr)
        return;
    // Patch the instruction count into the header.
    uint8_t count_bytes[8];
    writeU64(count_bytes, count);
    std::fseek(file, 16, SEEK_SET);
    if (std::fwrite(count_bytes, 1, 8, file) != 8)
        EIP_FATAL("trace header patch failed");
    std::fclose(file);
    file = nullptr;
}

TraceReader::TraceReader(const std::string &path, bool loop)
    : loop_(loop)
{
    file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        EIP_FATAL("cannot open trace file for reading");
    uint8_t header[kHeaderBytes];
    if (std::fread(header, 1, sizeof(header), file) != sizeof(header))
        EIP_FATAL("trace header read failed");
    if (readU64(header) != kTraceMagic)
        EIP_FATAL("not an EIP trace file (bad magic)");
    if (header[8] != kTraceVersion)
        EIP_FATAL("unsupported trace file version");
    total = readU64(header + 16);

    // Validate the header's instruction count against the actual file
    // size now, while we can still name the problem — a mismatch found
    // mid-simulation is a raw short-read with no context. Too few bytes
    // means a truncated copy; too many means a writer crashed before
    // patching the count into the header.
    if (std::fseek(file, 0, SEEK_END) != 0)
        EIP_FATAL("cannot seek trace file");
    const long end = std::ftell(file);
    EIP_ASSERT(end >= static_cast<long>(kHeaderBytes),
               "trace file shrank below its own header");
    const uint64_t actual = static_cast<uint64_t>(end) - kHeaderBytes;
    const uint64_t expected = total * kRecordBytes;
    if (actual != expected) {
        const std::string msg =
            "trace file " + path + ": header promises " +
            std::to_string(total) + " records (" + std::to_string(expected) +
            " bytes) but the file holds " + std::to_string(actual) +
            " bytes of records — " +
            (actual < expected
                 ? "truncated or partially copied; re-copy or re-capture it"
                 : "stale header from an interrupted capture; re-capture "
                   "the trace");
        EIP_FATAL(msg.c_str());
    }
    std::fseek(file, kHeaderBytes, SEEK_SET);
}

TraceReader::~TraceReader()
{
    if (file != nullptr)
        std::fclose(file);
}

bool
TraceReader::next(Instruction &out)
{
    if (total == 0)
        return false;
    if (position >= total) {
        if (!loop_)
            return false;
        std::fseek(file, kHeaderBytes, SEEK_SET);
        position = 0;
    }
    uint8_t buf[kRecordBytes];
    if (std::fread(buf, 1, sizeof(buf), file) != sizeof(buf)) {
        const std::string msg =
            "trace record read failed at record " + std::to_string(position) +
            " of " + std::to_string(total) +
            " (file changed or truncated after open?)";
        EIP_FATAL(msg.c_str());
    }
    unpackRecord(buf, out);
    ++position;
    return true;
}

} // namespace eip::trace
