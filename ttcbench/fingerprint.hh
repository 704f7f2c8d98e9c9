/**
 * @file
 * Host and build fingerprint stamped on every benchmark result.  Two
 * results are comparable only when the host and build fields match:
 * CPU model and ISA, core count, build type, kernel switches and
 * compiler.  The source fields (git commit, digest of src/) name the
 * code measured, which is what a comparison is meant to vary; run.py
 * --compare refuses any other difference.
 */

#ifndef TTC_FINGERPRINT_HH
#define TTC_FINGERPRINT_HH

#include <string>
#include <utility>
#include <vector>

namespace ttc {

struct Fingerprint
{
    std::string cpu_model;
    /** The x86 ISA extensions the round kernels can use, in a fixed
     * order, space separated (e.g. "sse4_2 avx avx2 fma"). */
    std::string isa;
    unsigned nproc = 0;
    std::string build_type;
    bool dpc_avx2 = false;
    bool dpc_avx512 = false;
    std::string compiler;
    /** Commit of the checkout ("" when it is not a git checkout). */
    std::string git_sha;
    /** FNV-1a digest of the library sources under src/. */
    std::string src_digest;

    /** Ordered (key, value) pairs; values already JSON-encoded. */
    std::vector<std::pair<std::string, std::string>> fields() const;

    /** The fields as one JSON object. */
    std::string json() const;
};

/** CPU model and kernel-relevant ISA flags from /proc/cpuinfo text. */
void parseCpuinfo(const std::string &text, std::string &model,
                  std::string &isa);

/**
 * Fingerprint of this host and this binary.  `repo_root` is the
 * checkout the library was built from: its .git/HEAD is read
 * directly when present, and the files under src/ are digested.
 */
Fingerprint hostFingerprint(const std::string &repo_root);

/** 64-bit FNV-1a over `data`, continuing from `h`. */
unsigned long long fnv1a(const std::string &data,
                         unsigned long long h = 1469598103934665603ull);

} // namespace ttc

#endif // TTC_FINGERPRINT_HH
