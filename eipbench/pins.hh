/**
 * @file
 * Pinned results the benchmark's correctness checks compare against.
 * Regenerate with `eipbench --pin` after a change that is meant to
 * alter simulated results, and never after one that is not.
 */

#ifndef EIPBENCH_PINS_HH
#define EIPBENCH_PINS_HH

#include <cstdint>

namespace eipbench::pins {

/** Input classes: the seed modulo this picks one. */
inline constexpr unsigned kClasses = 5;

/** Digest of every run of one workload in one input class. */
struct Entry
{
    unsigned cls;
    const char *workload;
    uint64_t digest;
};

/** Full-detail IPC at the sampled budget. */
struct Reference
{
    unsigned cls;
    const char *workload;
    double ipc;
};

inline constexpr Entry kFullDetail[] = {
    {0, "int-1", 0xafffedb9dbcf87fbull},
    {0, "int-2", 0xf94479d16a8d4cc6ull},
    {0, "int-3", 0x4fdcf9fc90436643ull},
    {0, "srv-1", 0x7142acd1645d4769ull},
    {0, "srv-2", 0x91b4dffb0849136bull},
    {0, "srv-3", 0xdc92196f0dba4d7cull},
    {1, "int-1", 0x75f79c4151171d3aull},
    {1, "int-2", 0xadb3ae43336176aaull},
    {1, "int-3", 0x0a372d5ebc74309aull},
    {1, "srv-1", 0x022c317b9c3c0d35ull},
    {1, "srv-2", 0xb329ac674c9d86aaull},
    {1, "srv-3", 0x3c2a53946d832357ull},
    {2, "int-1", 0x07b2344ae21babbaull},
    {2, "int-2", 0x5b10f43acf68472dull},
    {2, "int-3", 0x7ac2f2cfc27a59d3ull},
    {2, "srv-1", 0x29ceacc5bda5335dull},
    {2, "srv-2", 0xb1459fa445caf947ull},
    {2, "srv-3", 0xc807c04b093aca2full},
    {3, "int-1", 0xf89fdc1934cae81bull},
    {3, "int-2", 0xc073d2335408cbc6ull},
    {3, "int-3", 0xff119361da28cd13ull},
    {3, "srv-1", 0x385cbef664f903deull},
    {3, "srv-2", 0x0504e1fcfabdf802ull},
    {3, "srv-3", 0xbf7d1598644ed4ebull},
    {4, "int-1", 0x0daf1119dee66bd4ull},
    {4, "int-2", 0x2036e5f709c52899ull},
    {4, "int-3", 0x9be8dcbc0fd8c078ull},
    {4, "srv-1", 0x90551ecfa14bc9f0ull},
    {4, "srv-2", 0x5b2780bcff2d63abull},
    {4, "srv-3", 0xabc2c26ec6c06f79ull},
};

inline constexpr Entry kSampled[] = {
    {0, "int-1", 0x7f85d993b410c6e6ull},
    {0, "int-2", 0xebbd7e97aaed24bbull},
    {0, "int-3", 0xa97c226b94a9bee5ull},
    {0, "srv-1", 0x3abd02f3b0950330ull},
    {0, "srv-2", 0x6b1263c9233d3b47ull},
    {0, "srv-3", 0x5373aca57265673cull},
    {1, "int-1", 0x0af887b120c166b0ull},
    {1, "int-2", 0xa160ffc9f4c02b9full},
    {1, "int-3", 0x32eee7f3735014bcull},
    {1, "srv-1", 0x8133eb848ae6ea0dull},
    {1, "srv-2", 0x49cad60bc2914048ull},
    {1, "srv-3", 0x3080176e64f8bbe0ull},
    {2, "int-1", 0xbf5401265ad3f951ull},
    {2, "int-2", 0x38a416d21550caa0ull},
    {2, "int-3", 0x30c2dcb021274001ull},
    {2, "srv-1", 0xe9effd85f8d0232cull},
    {2, "srv-2", 0xc799403f22fa4f8full},
    {2, "srv-3", 0x4fa35033a37cb137ull},
    {3, "int-1", 0x827790f9f02854a4ull},
    {3, "int-2", 0xed9a9cbaac59ccbaull},
    {3, "int-3", 0xcb609384b9e4106eull},
    {3, "srv-1", 0x8a061569c045cfeaull},
    {3, "srv-2", 0xb95f676b93a7c899ull},
    {3, "srv-3", 0x7648a8a2b7ac5810ull},
    {4, "int-1", 0x9ef5aa88770ef65eull},
    {4, "int-2", 0xd276ce8b83359c32ull},
    {4, "int-3", 0xccfb3f9a3aac9c6cull},
    {4, "srv-1", 0x1cc77049ad255d45ull},
    {4, "srv-2", 0x560e230adafb01fdull},
    {4, "srv-3", 0x57afc823301dc9dcull},
};

inline constexpr Entry kFig6[] = {
    {0, "crypto-1", 0xefc2e7a79904a246ull},
    {0, "crypto-2", 0xee57916d9c10f9c5ull},
    {0, "crypto-3", 0x40d7e1ae7228a16dull},
    {0, "fp-1", 0xb2a52ca453f76432ull},
    {0, "fp-2", 0x271ad4749d8cf180ull},
    {0, "fp-3", 0x37f8419b8c419cdaull},
    {0, "int-1", 0x2955cce587e3b1a5ull},
    {0, "int-2", 0x14898ba2fb1d64c6ull},
    {0, "int-3", 0x6f69703cff15c55dull},
    {0, "srv-1", 0xf44944c3093cd97cull},
    {0, "srv-2", 0xc404585b5e7b2d04ull},
    {0, "srv-3", 0x1b810dd1447cb559ull},
    {1, "crypto-1", 0x2c1357091dc7b5d5ull},
    {1, "crypto-2", 0x234a3c6154186780ull},
    {1, "crypto-3", 0x92aa0a6a49c762edull},
    {1, "fp-1", 0x9abe9f02703820ddull},
    {1, "fp-2", 0xb285b5ca837d9981ull},
    {1, "fp-3", 0xc90abd6e141f4b81ull},
    {1, "int-1", 0x060f422594866bbfull},
    {1, "int-2", 0x06ae77e9667f37d1ull},
    {1, "int-3", 0xb1ec073399ee17e0ull},
    {1, "srv-1", 0x35e5a1a8fffe3969ull},
    {1, "srv-2", 0xbcb61b26bca1c0f4ull},
    {1, "srv-3", 0x6130e50b12f5dff1ull},
    {2, "crypto-1", 0x281c509865cc39cdull},
    {2, "crypto-2", 0x3a8eded9dee12b6aull},
    {2, "crypto-3", 0x9419de689f015910ull},
    {2, "fp-1", 0x8314897e07e36356ull},
    {2, "fp-2", 0x3c7323c6065bbfb3ull},
    {2, "fp-3", 0x6849b9c18bbccf94ull},
    {2, "int-1", 0x3c7a1f9af64c6428ull},
    {2, "int-2", 0xa301cb2fae595585ull},
    {2, "int-3", 0xa256d1d7cf7af621ull},
    {2, "srv-1", 0xba528c01be88fd35ull},
    {2, "srv-2", 0x2fbf62ffe8fcf4b7ull},
    {2, "srv-3", 0x56ca401ea246a8b9ull},
    {3, "crypto-1", 0x37931bfd1a291476ull},
    {3, "crypto-2", 0x41a648e32537692dull},
    {3, "crypto-3", 0x704c98e7d1585c01ull},
    {3, "fp-1", 0x68d4105a7e24ded5ull},
    {3, "fp-2", 0xe3f49799f4be6e77ull},
    {3, "fp-3", 0xd597682ceb27e496ull},
    {3, "int-1", 0xe513271cd1ae901dull},
    {3, "int-2", 0x318f5c827fad0285ull},
    {3, "int-3", 0x6b850c50c0b2bfdfull},
    {3, "srv-1", 0x6bdb4de128437b37ull},
    {3, "srv-2", 0x6c02be3317800e58ull},
    {3, "srv-3", 0xd7758d100682d2edull},
    {4, "crypto-1", 0x9728964b56667b0cull},
    {4, "crypto-2", 0x88553bc739644fedull},
    {4, "crypto-3", 0x192a12dc780c97a2ull},
    {4, "fp-1", 0x3dce63f8de90e5e5ull},
    {4, "fp-2", 0x07483110f9fe57ceull},
    {4, "fp-3", 0x12d48623432c467aull},
    {4, "int-1", 0x7a76921de61c2e87ull},
    {4, "int-2", 0x73dad8e62d326dceull},
    {4, "int-3", 0x14a9ab192b8417f4ull},
    {4, "srv-1", 0x58aa907b14f99c2aull},
    {4, "srv-2", 0xbbcd145609782c66ull},
    {4, "srv-3", 0x8be423165bbeaedcull},
};

inline constexpr Reference kSampledReference[] = {
    {0, "srv-1", 1.0169833658407788},
    {0, "srv-2", 1.0289093903333595},
    {0, "srv-3", 1.0028758715617032},
    {0, "int-1", 1.4090287196986229},
    {0, "int-2", 1.3597581024783201},
    {0, "int-3", 1.3915481372128997},
    {1, "srv-1", 1.0155912911031935},
    {1, "srv-2", 1.028330365958263},
    {1, "srv-3", 0.99697368694072508},
    {1, "int-1", 1.4033931412672991},
    {1, "int-2", 1.3641694669790501},
    {1, "int-3", 1.3981321829036408},
    {2, "srv-1", 1.0142222466198987},
    {2, "srv-2", 1.0323170626665941},
    {2, "srv-3", 1.0000355637558451},
    {2, "int-1", 1.4067769011115911},
    {2, "int-2", 1.3633919446899259},
    {2, "int-3", 1.3905534340447201},
    {3, "srv-1", 1.017365666736229},
    {3, "srv-2", 1.0335263550736598},
    {3, "srv-3", 0.99812290546286908},
    {3, "int-1", 1.4084913719339784},
    {3, "int-2", 1.3804738907139422},
    {3, "int-3", 1.391968672356976},
    {4, "srv-1", 1.0165915289371064},
    {4, "srv-2", 1.025784429930739},
    {4, "srv-3", 1.0021253817391416},
    {4, "int-1", 1.409418666917543},
    {4, "int-2", 1.3669332898192956},
    {4, "int-3", 1.3993699514471316},
};

} // namespace eipbench::pins

#endif // EIPBENCH_PINS_HH
