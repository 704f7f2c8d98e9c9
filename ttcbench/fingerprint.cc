#include "fingerprint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef TTC_BUILD_TYPE
#define TTC_BUILD_TYPE "unknown"
#endif

namespace ttc {

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
trim(std::string s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    const auto e = s.find_last_not_of(" \t\r\n");
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/** Commit of a checkout's HEAD, read without running git. */
std::string
gitHead(const std::filesystem::path &root)
{
    const auto git = root / ".git";
    if (!std::filesystem::is_directory(git))
        return "";
    std::string head = trim(readFile(git / "HEAD"));
    if (head.rfind("ref: ", 0) != 0)
        return head;
    const std::string ref = head.substr(5);
    std::string sha = trim(readFile(git / ref));
    if (!sha.empty())
        return sha;
    std::istringstream packed(readFile(git / "packed-refs"));
    for (std::string line; std::getline(packed, line);) {
        const auto sp = line.find(' ');
        if (sp != std::string::npos && line.substr(sp + 1) == ref)
            return line.substr(0, sp);
    }
    return "";
}

/** Digest of every file under src/, in path order. */
std::string
sourceDigest(const std::filesystem::path &root)
{
    std::vector<std::filesystem::path> files;
    const auto src = root / "src";
    if (!std::filesystem::is_directory(src))
        return "";
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(src))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    unsigned long long h = fnv1a("");
    for (const auto &f : files) {
        h = fnv1a(std::filesystem::relative(f, root).string(), h);
        h = fnv1a(readFile(f), h);
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx", h);
    return buf;
}

} // namespace

unsigned long long
fnv1a(const std::string &data, unsigned long long h)
{
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::vector<std::pair<std::string, std::string>>
Fingerprint::fields() const
{
    return {
        {"cpu_model", quoted(cpu_model)},
        {"isa", quoted(isa)},
        {"nproc", std::to_string(nproc)},
        {"build_type", quoted(build_type)},
        {"DPC_AVX2", dpc_avx2 ? "true" : "false"},
        {"DPC_AVX512", dpc_avx512 ? "true" : "false"},
        {"compiler", quoted(compiler)},
        {"git_sha", quoted(git_sha)},
        {"src_digest", quoted(src_digest)},
    };
}

std::string
Fingerprint::json() const
{
    std::string out = "{";
    for (const auto &[k, v] : fields()) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(k) + ": " + v;
    }
    return out + "}";
}

void
parseCpuinfo(const std::string &text, std::string &model,
             std::string &isa)
{
    static const char *const kIsa[] = {"sse4_2", "avx",     "avx2",
                                       "fma",    "avx512f", "avx512dq",
                                       "avx512bw", "avx512vl"};
    model.clear();
    isa.clear();
    std::istringstream in(text);
    std::string flags;
    for (std::string line; std::getline(in, line);) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::string key = trim(line.substr(0, colon));
        if (key == "model name" && model.empty())
            model = trim(line.substr(colon + 1));
        else if (key == "flags" && flags.empty())
            flags = " " + trim(line.substr(colon + 1)) + " ";
    }
    for (const char *f : kIsa) {
        if (flags.find(" " + std::string(f) + " ") == std::string::npos)
            continue;
        if (!isa.empty())
            isa += ' ';
        isa += f;
    }
}

Fingerprint
hostFingerprint(const std::string &repo_root)
{
    Fingerprint fp;
    parseCpuinfo(readFile("/proc/cpuinfo"), fp.cpu_model, fp.isa);
    fp.nproc = std::thread::hardware_concurrency();
    fp.build_type = TTC_BUILD_TYPE;
#ifdef DPC_AVX2
    fp.dpc_avx2 = true;
#endif
#ifdef DPC_AVX512
    fp.dpc_avx512 = true;
#endif
#if defined(__clang__)
    fp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    fp.compiler = "gcc " __VERSION__;
#else
    fp.compiler = "unknown";
#endif
    fp.git_sha = gitHead(repo_root);
    fp.src_digest = sourceDigest(repo_root);
    return fp;
}

} // namespace ttc
