/**
 * @file
 * Guards the tool documentation against drift: the option list in each
 * tool's header comment, the usage() text, and the flags parseArgs()
 * actually accepts are extracted from the tool's source (paths
 * injected via AB_*_SOURCE) and compared as sets. This is the
 * regression test for the historical bug where --teleport and --stats
 * existed in usage() but were missing from the header comment. The
 * shared exit-code convention (0 success, 1 findings/regression,
 * 2 usage or input parse error) is asserted across all six tools —
 * both statically (source must wire UserError to return 2) and
 * dynamically, by invoking each built binary (paths injected via
 * AB_*_BIN) with malformed numeric flags and asserting exit code 2.
 * The dynamic half is the regression test for the historical bug
 * where a raw std::stoi aborted the whole process on "--seeds=banana"
 * instead of printing the offending value.
 *
 * The CLI's --json mode must print exactly one JSON document on
 * stdout, notices going to stderr.
 *
 * The compile options are probed rather than read: the CLI's option
 * flags are whatever setOptionFlag() recognizes, docs/serving.md's
 * option list must name exactly the keys setOption() accepts, and at
 * each numeric option's bound the CLI, a serve request and validate()
 * must agree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/text.hpp"
#include "compiler/options.hpp"
#include "serve/service.hpp"

namespace {

using autobraid::CompileOptions;

std::string
readSource(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
readCliSource()
{
    return readSource(AB_CLI_SOURCE);
}

struct ToolSource
{
    const char *name;
    const char *path;
};

constexpr ToolSource kTools[] = {
    {"autobraid_cli", AB_CLI_SOURCE},
    {"autobraid_fuzz", AB_FUZZ_SOURCE},
    {"autobraid_lint", AB_LINT_SOURCE},
    {"autobraid_inspect", AB_INSPECT_SOURCE},
    {"autobraid_certify", AB_CERTIFY_SOURCE},
    {"autobraid_serve", AB_SERVE_SOURCE},
};

/** Every distinct "--flag" token in @p text. */
std::set<std::string>
extractFlags(const std::string &text)
{
    std::set<std::string> flags;
    for (size_t i = 0; i + 2 < text.size(); ++i) {
        if (text[i] != '-' || text[i + 1] != '-')
            continue;
        if (i > 0 && (text[i - 1] == '-' ||
                      std::isalnum(static_cast<unsigned char>(
                          text[i - 1]))))
            continue;
        size_t end = i + 2;
        while (end < text.size() &&
               (std::islower(static_cast<unsigned char>(text[end])) ||
                text[end] == '-'))
            ++end;
        if (end > i + 2)
            flags.insert(text.substr(i, end - i));
        i = end;
    }
    return flags;
}

/** Substring of @p text between markers (both must exist). */
std::string
section(const std::string &text, const std::string &from,
        const std::string &to)
{
    const size_t a = text.find(from);
    EXPECT_NE(a, std::string::npos) << from;
    const size_t b = text.find(to, a);
    EXPECT_NE(b, std::string::npos) << to;
    return text.substr(a, b - a);
}

std::string
describe(const std::set<std::string> &flags)
{
    std::string s;
    for (const std::string &f : flags)
        s += f + " ";
    return s;
}

TEST(CliDoc, HeaderCommentMatchesUsage)
{
    const std::string src = readCliSource();
    // The header comment is everything before the first include; the
    // usage text lives between the function head and its exit call.
    const auto header =
        extractFlags(section(src, "/**", "#include"));
    const auto usage =
        extractFlags(section(src, "usage(int code)", "std::exit"));
    EXPECT_EQ(header, usage)
        << "header comment documents: " << describe(header)
        << "\nusage() prints: " << describe(usage);
}

/**
 * True when setOptionFlag() recognizes @p flag, bare or with an empty
 * value: it either sets the option or rejects the empty value.
 */
bool
setsAnOption(const std::string &flag)
{
    CompileOptions options;
    for (const std::string &arg : {flag, flag + "="}) {
        try {
            if (autobraid::setOptionFlag(options, arg.c_str()))
                return true;
        } catch (const autobraid::UserError &) {
            return true;
        }
    }
    return false;
}

TEST(CliDoc, UsageOnlyAdvertisesParsedFlags)
{
    const std::string src = readCliSource();
    const auto usage =
        extractFlags(section(src, "usage(int code)", "std::exit"));
    // parseArgs' own flags, plus the compile-option flags it hands to
    // setOptionFlag.
    auto parsed = extractFlags(section(src, "parseArgs(", "loadInput"));
    for (const std::string &flag : usage)
        if (setsAnOption(flag))
            parsed.insert(flag);
    EXPECT_FALSE(usage.empty());
    EXPECT_TRUE(std::includes(parsed.begin(), parsed.end(),
                              usage.begin(), usage.end()))
        << "usage() advertises: " << describe(usage)
        << "\nparseArgs accepts: " << describe(parsed);
}

// Every tool's usage() may only advertise flags its header comment
// documents — the header is the canonical option reference.
TEST(ToolDoc, UsageFlagsDocumentedInEveryHeader)
{
    for (const ToolSource &tool : kTools) {
        const std::string src = readSource(tool.path);
        const auto header =
            extractFlags(section(src, "/**", "#include"));
        const auto usage =
            extractFlags(section(src, "usage(int", "std::exit"));
        EXPECT_FALSE(usage.empty()) << tool.name;
        EXPECT_TRUE(std::includes(header.begin(), header.end(),
                                  usage.begin(), usage.end()))
            << tool.name
            << " usage() advertises: " << describe(usage)
            << "\nheader documents: " << describe(header);
    }
}

// Shared exit-code convention: every tool documents its exit codes in
// the header comment and actually wires UserError to exit code 2 (bad
// usage / input parse), distinct from 1 (findings or failures).
TEST(ToolDoc, SharedExitCodeConvention)
{
    for (const ToolSource &tool : kTools) {
        const std::string src = readSource(tool.path);
        const std::string header = section(src, "/**", "#include");
        const size_t exit_doc = header.find("Exit");
        EXPECT_NE(exit_doc, std::string::npos)
            << tool.name << " header must document exit codes";
        if (exit_doc != std::string::npos) {
            const std::string doc = header.substr(exit_doc);
            EXPECT_NE(doc.find('0'), std::string::npos) << tool.name;
            EXPECT_NE(doc.find('1'), std::string::npos) << tool.name;
            EXPECT_NE(doc.find('2'), std::string::npos) << tool.name;
        }
        EXPECT_NE(src.find("UserError"), std::string::npos)
            << tool.name << " must distinguish user errors";
        EXPECT_NE(src.find("return 2"), std::string::npos)
            << tool.name << " must exit 2 on user errors";
    }
}

// ---------------------------------------------------------------------
// Dynamic exit-code checks: run the built binaries with malformed
// numeric flags. Every case must terminate with exit code 2 — never a
// std::terminate/abort (the raw-stoi failure mode) and never a silent
// success.

/** The exit code of a finished command's wait @p status. */
int
exitCode(int status)
{
    if (status < 0)
        return -1;
#ifdef WEXITSTATUS
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

/** Run @p command with silenced output; returns the exit code. */
int
runTool(const std::string &command)
{
    return exitCode(
        std::system((command + " >/dev/null 2>&1").c_str()));
}

/**
 * Run @p command; returns the exit code and puts what it wrote to
 * stdout, and to stderr unless @p stdout_only, in @p output.
 */
int
runToolCapture(const std::string &command, std::string &output,
               bool stdout_only = false)
{
    output.clear();
    std::FILE *pipe = ::popen(
        (command + (stdout_only ? " 2>/dev/null" : " 2>&1")).c_str(),
        "r");
    if (!pipe)
        return -1;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        output.append(buf, got);
    return exitCode(::pclose(pipe));
}

struct BadFlagCase
{
    const char *tool;
    const char *bin;
    const char *args;
};

const BadFlagCase kBadFlagCases[] = {
    // Non-numeric values.
    {"autobraid_cli", AB_CLI_BIN, "--distance=banana qft:4"},
    {"autobraid_cli", AB_CLI_BIN, "--p=nope qft:4"},
    {"autobraid_cli", AB_CLI_BIN, "--seed=x qft:4"},
    {"autobraid_fuzz", AB_FUZZ_BIN, "--seeds=banana"},
    {"autobraid_fuzz", AB_FUZZ_BIN, "--budget-seconds=soon"},
    {"autobraid_lint", AB_LINT_BIN, "--distance=banana qft:4"},
    {"autobraid_lint", AB_LINT_BIN, "--dead=1,x,3 qft:4"},
    {"autobraid_inspect", AB_INSPECT_BIN, "summary --top=banana"},
    {"autobraid_inspect", AB_INSPECT_BIN,
     "diff --makespan-threshold=huge"},
    {"autobraid_serve", AB_SERVE_BIN, "--workers=banana"},
    // Trailing junk a raw strtol would silently accept.
    {"autobraid_cli", AB_CLI_BIN, "--distance=33x qft:4"},
    {"autobraid_fuzz", AB_FUZZ_BIN, "--seeds=10abc"},
    // Out-of-range values.
    {"autobraid_cli", AB_CLI_BIN, "--jobs=0 qft:4"},
    {"autobraid_cli", AB_CLI_BIN, "--jobs=100000 qft:4"},
    {"autobraid_cli", AB_CLI_BIN, "--route-jobs=0 qft:4"},
    {"autobraid_cli", AB_CLI_BIN, "--p=1.5 qft:4"},
    {"autobraid_fuzz", AB_FUZZ_BIN, "--seeds=0"},
    {"autobraid_fuzz", AB_FUZZ_BIN,
     "--start-seed=99999999999999999999"},
    {"autobraid_serve", AB_SERVE_BIN, "--workers=-1"},
    {"autobraid_serve", AB_SERVE_BIN, "--queue-depth=0"},
    // Compile options out of range, in every CLI mode and in lint.
    {"autobraid_cli", AB_CLI_BIN, "--distance=10000 qft:4"},
    {"autobraid_cli", AB_CLI_BIN,
     "--jobs=2 --teleport=1000000001 qft:4 qft:5"},
    {"autobraid_cli", AB_CLI_BIN, "--compare --route-jobs=513 qft:4"},
    {"autobraid_cli", AB_CLI_BIN,
     "--sweep-p --seed=9007199254740992 qft:4"},
    {"autobraid_lint", AB_LINT_BIN, "--distance=10000 qft:4"},
    {"autobraid_lint", AB_LINT_BIN, "--teleport=1000000001 qft:4"},
    // An unknown lint suppression is a usage error in batch mode too.
    {"autobraid_cli", AB_CLI_BIN,
     "--jobs=2 --lint --lint-suppress=AB999 qft:4 qft:5"},
    // Option values that are no whole JSON number.
    {"autobraid_cli", AB_CLI_BIN, "--distance=0x10 qft:4"},
    {"autobraid_cli", AB_CLI_BIN, "--p=inf qft:4"},
    {"autobraid_lint", AB_LINT_BIN, "--seed=1.5 qft:4"},
    // Compile options the lint does not take stay unknown to it.
    {"autobraid_lint", AB_LINT_BIN, "--backend=surgery qft:4"},
    // Unknown options share the same usage-error exit code.
    {"autobraid_cli", AB_CLI_BIN, "--no-such-flag qft:4"},
    {"autobraid_fuzz", AB_FUZZ_BIN, "--no-such-flag"},
    {"autobraid_lint", AB_LINT_BIN, "--no-such-flag qft:4"},
    {"autobraid_inspect", AB_INSPECT_BIN, "summary --no-such-flag"},
    {"autobraid_certify", AB_CERTIFY_BIN, "--no-such-flag"},
    {"autobraid_serve", AB_SERVE_BIN, "--no-such-flag"},
};

TEST(ToolExit, MalformedNumericFlagsExitTwo)
{
    for (const BadFlagCase &c : kBadFlagCases) {
        const int code =
            runTool(std::string(c.bin) + " " + c.args);
        EXPECT_EQ(code, 2)
            << c.tool << " " << c.args << " exited " << code;
    }
}

/**
 * The hostile QASM corpus: inputs every front end must reject, among
 * them inputs that once crashed or hung it, or that a tool accepted.
 */
std::vector<std::string>
hostileQasmFiles()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(AB_HOSTILE_QASM_DIR))
        if (entry.path().extension() == ".qasm")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(ToolExit, HostileQasmExitsTwo)
{
    const std::vector<std::string> files = hostileQasmFiles();
    EXPECT_GE(files.size(), 4u);
    for (const std::string &file : files) {
        for (const char *bin : {AB_CLI_BIN, AB_LINT_BIN}) {
            // A front-end hang fails as timeout's exit 124.
            const int code =
                runTool("timeout 30 " + std::string(bin) + " " + file);
            EXPECT_EQ(code, 2) << bin << " " << file << " exited " << code;
        }
    }
}

TEST(ToolExit, ManyRegistersLintInTime)
{
    // 100,000 one-qubit registers, each used once by an H. Every lookup
    // of a register by name (parser, linter, elaborator) must be
    // constant time for the lint to finish: with a scan of the
    // registers declared so far per lookup, it runs past the timeout.
    constexpr int kRegisters = 100000;
    const std::string file = testing::TempDir() + "many_registers.qasm";
    {
        std::ofstream out(file);
        out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
        for (int i = 0; i < kRegisters; ++i)
            out << "qreg a" << i << "[1];\n";
        for (int i = 0; i < kRegisters; ++i)
            out << "h a" << i << ";\n";
    }
    const int code =
        runTool("timeout 30 " + std::string(AB_LINT_BIN) + " " + file);
    EXPECT_EQ(code, 0) << "autobraid_lint exited " << code;
}

TEST(ToolExit, DirectoryInputIsAReadError)
{
    // A directory opens like a file; the tools that read whole
    // documents or QASM files must report the failed read and exit 2,
    // not parse it as an empty program.
    const std::string dir = testing::TempDir();
    for (const std::string &command :
         {std::string(AB_CERTIFY_BIN) + " " + dir,
          std::string(AB_INSPECT_BIN) + " summary " + dir,
          std::string(AB_CLI_BIN) + " " + dir,
          std::string(AB_LINT_BIN) + " " + dir}) {
        std::string output;
        EXPECT_EQ(runToolCapture(command, output), 2) << command;
        EXPECT_NE(output.find("read error on '" + dir + "'"),
                  std::string::npos)
            << command << " printed: " << output;
    }
}

/** autobraid_cli arguments whose whole stdout is one JSON document. */
const char *const kJsonStdoutArgs[] = {
    "--json qft:4",
    "--policy=baseline --defects=3 --json adder:6",
};

TEST(ToolOutput, JsonReportIsTheWholeStdout)
{
    for (const char *args : kJsonStdoutArgs) {
        std::string out;
        EXPECT_EQ(runToolCapture(std::string(AB_CLI_BIN) + " " + args,
                                 out, true),
                  0)
            << args;
        EXPECT_NO_THROW(autobraid::json::parse(out))
            << args << " printed: " << out;
    }
}

// ---------------------------------------------------------------------
// One option surface: the serve docs list setOption's keys, and every
// front end applies the same range.

/** True when setOption() knows @p key; null suits no option's type. */
bool
isOptionKey(const std::string &key)
{
    CompileOptions options;
    try {
        return autobraid::setOption(options, key, autobraid::json::Value());
    } catch (const autobraid::UserError &) {
        return true;
    }
}

TEST(ServeDoc, OptionListNamesExactlyTheSetOptionKeys)
{
    // The documented keys: the first `word` of each sub-bullet under
    // the `options` bullet.
    const std::string doc = readSource(AB_SERVING_DOC);
    const std::string bullet = section(doc, "* `options`", "\n* ");
    std::set<std::string> documented;
    for (size_t at = bullet.find("\n  * `"); at != std::string::npos;
         at = bullet.find("\n  * `", at + 1)) {
        const size_t from = at + 6;
        documented.insert(
            bullet.substr(from, bullet.find('`', from) - from));
    }
    // Candidates for setOption's keys: the documented ones and every
    // identifier-like string literal in its source file.
    std::set<std::string> accepted;
    for (const std::string &key : documented)
        if (isOptionKey(key))
            accepted.insert(key);
    const std::string src = readSource(AB_OPTIONS_SOURCE);
    for (size_t open = src.find('"'); open != std::string::npos;) {
        const size_t close = src.find('"', open + 1);
        if (close == std::string::npos)
            break;
        const std::string word = src.substr(open + 1, close - open - 1);
        if (!word.empty() &&
            word.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") ==
                std::string::npos &&
            isOptionKey(word))
            accepted.insert(word);
        open = src.find('"', close + 1);
    }
    // The eight options; no front end gains or loses one.
    EXPECT_EQ(accepted.size(), 8u) << describe(accepted);
    EXPECT_EQ(documented, accepted)
        << "docs/serving.md lists: " << describe(documented)
        << "\nsetOption accepts: " << describe(accepted);
}

struct BoundCase
{
    const char *key;   ///< the request key
    const char *flag;  ///< the autobraid_cli flag
    const char *value; ///< as the flag and the request spell it
    bool valid;
};

// Each numeric option's largest valid value and the next value up.
const BoundCase kBoundCases[] = {
    {"distance", "--distance", "9999", true},
    {"distance", "--distance", "10000", false},
    {"p", "--p", "1", true},
    {"p", "--p", "1.0000000000000002", false},
    {"teleport", "--teleport", "1000000000", true},
    {"teleport", "--teleport", "1000000001", false},
    {"route_jobs", "--route-jobs", "512", true},
    {"route_jobs", "--route-jobs", "513", false},
    {"seed", "--seed", "9007199254740991", true},
    {"seed", "--seed", "9007199254740992", false},
};

TEST(OptionRanges, FrontEndsAgreeAtEachBound)
{
    namespace json = autobraid::json;
    autobraid::serve::CompileService service(
        autobraid::serve::ServiceConfig{});
    int id = 0;
    for (const BoundCase &c : kBoundCases) {
        SCOPED_TRACE(std::string(c.key) + " = " + c.value);
        EXPECT_EQ(runTool(std::string(AB_CLI_BIN) + " " + c.flag + "=" +
                          c.value + " qft:4"),
                  c.valid ? 0 : 2);

        const std::string reply = service.handle(autobraid::strformat(
            "{\"id\":%d,\"spec\":\"qft:4\",\"options\":{\"%s\":%s}}",
            ++id, c.key, c.value));
        const json::Value doc = json::parse(reply);
        EXPECT_EQ(doc.stringOr("status", ""), c.valid ? "ok" : "error")
            << reply;
        EXPECT_EQ(doc.numberOr("id", 0), id) << reply;
        if (!c.valid) {
            EXPECT_NE(doc.stringOr("error", "").find(c.key),
                      std::string::npos)
                << reply;
        }

        // The library: setOption, then validate(). validate() leaves
        // the seed unbounded, because the BatchCompiler derives 64-bit
        // seeds; the seed's bound is the exact range of a JSON number,
        // which setOption enforces.
        bool library_valid = true;
        try {
            CompileOptions options;
            autobraid::setOption(options, c.key,
                                 json::Value(std::strtod(c.value, nullptr)));
            options.validate();
        } catch (const autobraid::UserError &) {
            library_valid = false;
        }
        EXPECT_EQ(library_valid, c.valid);
    }
}

} // namespace
