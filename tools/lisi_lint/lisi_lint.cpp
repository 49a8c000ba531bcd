// lisi_lint: the project-specific static-analysis pass.
//
// A token-level C++ scanner (no libclang — the tool must build anywhere the
// tree builds) enforcing the repo invariants that generic tools cannot see:
//
//   raw-tag        point-to-point tag arguments must be named constants from
//                  the src/comm/tags.hpp registry, not integer literals;
//   rank-branch    collective calls lexically inside a rank()-dependent
//                  branch — the lockstep-divergence bug class the runtime
//                  checker (LISI_COMM_CHECK) only catches when it executes;
//   dropped-span   obs::Span constructed as a temporary: it closes at the
//                  end of the full expression and times nothing;
//   hot-alloc      heap-allocation keywords inside a region declared
//                  allocation-free by `// lisi-lint: zero-alloc-begin` /
//                  `zero-alloc-end` markers;
//   env-knob-doc   a LISI_* env knob read via getenv()/envInt() that the
//                  README never documents;
//   abi-boundary   C++ constructs (std::, templates, exceptions, namespaces)
//                  in headers under an abi/ directory — the plugin boundary
//                  (src/abi/lisi_abi.h) must stay consumable by a plain C
//                  compiler;
//   bad-suppression a malformed or unknown `// lisi-lint:` directive.
//
// Findings print as `file:line: [rule-id] message` plus a one-line fix
// hint; the only suppression mechanism is an inline
// `// lisi-lint: allow(<rule-id>) <reason>` on the offending line or the
// line above it.  Exit status: 0 clean, 1 findings, 2 usage/tool error.
//
// The scanner is deliberately lexical.  It cannot chase a tag through a
// variable, see through `const int r = rank()`, or prove two branch arms
// issue matching collectives — those limits are documented per rule in
// docs/STATIC_ANALYSIS.md, and the runtime checker remains the semantic
// backstop.  What the lexical pass buys is coverage: it runs on every file
// of src/ tests/ bench/ examples/ in every verify, with zero build-time
// dependencies.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---- rule registry --------------------------------------------------------

enum class Rule {
#define LISI_LINT_RULE(enumName, id, hint) enumName,
#include "rules.def"
#undef LISI_LINT_RULE
};

struct RuleInfo {
  Rule rule;
  const char* id;
  const char* hint;
};

const RuleInfo kRules[] = {
#define LISI_LINT_RULE(enumName, id, hint) {Rule::enumName, id, hint},
#include "rules.def"
#undef LISI_LINT_RULE
};

const RuleInfo& info(Rule r) {
  for (const RuleInfo& ri : kRules) {
    if (ri.rule == r) return ri;
  }
  std::abort();  // unreachable: every Rule value has a kRules row
}

bool knownRuleId(const std::string& id) {
  return std::any_of(std::begin(kRules), std::end(kRules),
                     [&](const RuleInfo& ri) { return id == ri.id; });
}

// ---- tokenizer ------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kString, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Comment {
  std::string text;
  int line;
};

/// Lex `src` into tokens; comments are collected separately (directives and
/// markers live there).  String/char literals become single kString tokens
/// carrying their inner text, so rules can read getenv("...") arguments
/// without ever matching rule keywords inside literals.
void lex(const std::string& src, std::vector<Token>& tokens,
         std::vector<Comment>& comments) {
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  auto peek = [&](std::size_t k) { return i + k < n ? src[i + k] : '\0'; };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      comments.push_back({src.substr(start, i - start), line});
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int startLine = line;
      const std::size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      comments.push_back({src.substr(start, i - start), startLine});
      i = std::min(n, i + 2);
      continue;
    }
    if (c == '"' || c == '\'') {
      // Raw strings: R"delim( ... )delim" — find the matching closer.
      if (c == '"' && i > 0 && src[i - 1] == 'R') {
        const std::size_t open = src.find('(', i);
        if (open != std::string::npos) {
          const std::string delim = src.substr(i + 1, open - i - 1);
          const std::string closer = ")" + delim + "\"";
          const std::size_t end = src.find(closer, open + 1);
          const std::size_t stop = end == std::string::npos ? n : end;
          std::string body = src.substr(open + 1, stop - open - 1);
          tokens.push_back({Token::Kind::kString, body, line});
          line += static_cast<int>(
              std::count(src.begin() + static_cast<std::ptrdiff_t>(i),
                         src.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(n, stop + closer.size())),
                         '\n'));
          i = std::min(n, stop + closer.size());
          continue;
        }
      }
      const char quote = c;
      const int startLine = line;
      std::string body;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          body += src[i];
          body += src[i + 1];
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;  // unterminated; tolerate
        body += src[i];
        ++i;
      }
      ++i;  // closing quote
      tokens.push_back({Token::Kind::kString, body, startLine});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) ||
                       src[j] == '.' || src[j] == '\'')) {
        ++j;
      }
      tokens.push_back({Token::Kind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) ||
                       src[j] == '_')) {
        ++j;
      }
      tokens.push_back({Token::Kind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Multi-char punctuation the rules care about: '::' and '->'.
    if (c == ':' && peek(1) == ':') {
      tokens.push_back({Token::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      tokens.push_back({Token::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
}

// ---- findings and suppression ---------------------------------------------

struct Finding {
  std::string file;
  int line;
  Rule rule;
  std::string message;
};

struct FileContext {
  std::string path;            // as reported
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  /// line -> rule ids allowed on that line and the next.
  std::map<int, std::set<std::string>> allows;
  /// [begin, end] line ranges declared allocation-free.
  std::vector<std::pair<int, int>> zeroAllocRanges;
  bool inTestsDir = false;
  bool inFixtures = false;  // lint_fixtures opt back in to every rule
  bool isTagRegistry = false;
  bool inAbiDir = false;  // any path component named "abi" (the C surface)
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parse `// lisi-lint: ...` directives out of the comments: allow()
/// suppressions, zero-alloc markers, and (as findings) anything malformed.
void parseDirectives(FileContext& fc, std::vector<Finding>& findings) {
  std::vector<std::pair<int, bool>> markers;  // line, isBegin
  for (const Comment& c : fc.comments) {
    const std::size_t at = c.text.find("lisi-lint:");
    if (at == std::string::npos) continue;
    const std::string directive = trim(c.text.substr(at + 10));
    if (directive.rfind("allow(", 0) == 0) {
      const std::size_t close = directive.find(')');
      if (close == std::string::npos) {
        findings.push_back({fc.path, c.line, Rule::kBadSuppression,
                            "unclosed allow( in lisi-lint directive"});
        continue;
      }
      const std::string id = trim(directive.substr(6, close - 6));
      const std::string reason = trim(directive.substr(close + 1));
      if (!knownRuleId(id)) {
        findings.push_back({fc.path, c.line, Rule::kBadSuppression,
                            "allow() names unknown rule '" + id + "'"});
        continue;
      }
      if (reason.empty()) {
        findings.push_back({fc.path, c.line, Rule::kBadSuppression,
                            "allow(" + id +
                                ") carries no reason; blanket suppressions "
                                "are rejected"});
        continue;
      }
      fc.allows[c.line].insert(id);
    } else if (directive.rfind("zero-alloc-begin", 0) == 0) {
      markers.emplace_back(c.line, true);
    } else if (directive.rfind("zero-alloc-end", 0) == 0) {
      markers.emplace_back(c.line, false);
    } else {
      findings.push_back({fc.path, c.line, Rule::kBadSuppression,
                          "unknown lisi-lint directive '" + directive + "'"});
    }
  }
  int open = -1;
  for (const auto& [line, isBegin] : markers) {
    if (isBegin) {
      if (open >= 0) {
        findings.push_back({fc.path, line, Rule::kBadSuppression,
                            "zero-alloc-begin inside an open zero-alloc "
                            "region (missing zero-alloc-end)"});
      }
      open = line;
    } else {
      if (open < 0) {
        findings.push_back({fc.path, line, Rule::kBadSuppression,
                            "zero-alloc-end without a matching begin"});
        continue;
      }
      fc.zeroAllocRanges.emplace_back(open, line);
      open = -1;
    }
  }
  if (open >= 0) {
    findings.push_back({fc.path, open, Rule::kBadSuppression,
                        "zero-alloc-begin never closed in this file"});
  }
}

bool suppressed(const FileContext& fc, int line, Rule rule) {
  const std::string id = info(rule).id;
  for (const int l : {line, line - 1}) {
    const auto it = fc.allows.find(l);
    if (it != fc.allows.end() && it->second.count(id) != 0) return true;
  }
  return false;
}

// ---- token helpers --------------------------------------------------------

bool isIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
bool isPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

/// Index just past a template-argument list starting at `i` (if tokens[i] is
/// '<'), balancing nested <>; bails conservatively at ';' or '{'.
std::size_t skipTemplateArgs(const std::vector<Token>& toks, std::size_t i) {
  if (i >= toks.size() || !isPunct(toks[i], "<")) return i;
  int depth = 0;
  std::size_t j = i;
  while (j < toks.size()) {
    if (isPunct(toks[j], "<")) ++depth;
    if (isPunct(toks[j], ">")) {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (isPunct(toks[j], ";") || isPunct(toks[j], "{")) return i;  // not args
    ++j;
  }
  return i;
}

/// With tokens[open] == '(', return the index of the matching ')' (or
/// toks.size()) and the comma-split argument ranges at depth 1.
std::size_t splitArgs(const std::vector<Token>& toks, std::size_t open,
                      std::vector<std::pair<std::size_t, std::size_t>>& args) {
  int depth = 0;
  std::size_t argBegin = open + 1;
  for (std::size_t j = open; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (isPunct(t, "(") || isPunct(t, "[") || isPunct(t, "{")) ++depth;
    if (isPunct(t, ")") || isPunct(t, "]") || isPunct(t, "}")) {
      --depth;
      if (depth == 0) {
        if (j > argBegin) args.emplace_back(argBegin, j);
        return j;
      }
    }
    if (depth == 1 && isPunct(t, ",")) {
      args.emplace_back(argBegin, j);
      argBegin = j + 1;
    }
  }
  return toks.size();
}

// ---- rule: raw-tag --------------------------------------------------------

struct TaggedCall {
  const char* name;
  std::size_t tagArg;  // 1-based position of the tag parameter
};

const TaggedCall kTaggedCalls[] = {
    {"send", 3},      {"sendValue", 3}, {"sendBytes", 4},
    {"recv", 3},      {"recvValue", 2}, {"recvVector", 2},
    {"recvBytes", 2}, {"recvBytesInto", 4},
};

void checkRawTag(const FileContext& fc, std::vector<Finding>& findings) {
  // Tests exercise arbitrary user tags on purpose, and the registry itself
  // defines the constants; both are out of scope by design.  The seeded
  // fixtures opt back in (they live under tests/ but exist to be scanned).
  if ((fc.inTestsDir && !fc.inFixtures) || fc.isTagRegistry) return;
  const auto& toks = fc.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const TaggedCall* call = nullptr;
    for (const TaggedCall& tc : kTaggedCalls) {
      if (toks[i].text == tc.name) {
        call = &tc;
        break;
      }
    }
    if (call == nullptr) continue;
    std::size_t j = skipTemplateArgs(toks, i + 1);
    if (j >= toks.size() || !isPunct(toks[j], "(")) continue;
    std::vector<std::pair<std::size_t, std::size_t>> args;
    splitArgs(toks, j, args);
    if (args.size() < call->tagArg) continue;  // declaration or other overload
    const auto [b, e] = args[call->tagArg - 1];
    if (e - b == 1 && toks[b].kind == Token::Kind::kNumber &&
        toks[b].text.find('.') == std::string::npos) {
      findings.push_back(
          {fc.path, toks[b].line, Rule::kRawTag,
           "raw tag literal " + toks[b].text + " in " + call->name +
               "(); tags outside tests must come from the src/comm/tags.hpp "
               "registry"});
    }
  }
}

// ---- rule: rank-branch ----------------------------------------------------

const char* const kCollectives[] = {
    "barrier",    "bcast",      "bcastValue", "reduce",     "reduceValue",
    "allreduce",  "allreduceValue",           "gather",     "gatherv",
    "allgather",  "allgatherv", "scatter",    "scatterv",   "split",
    "dup",        "reserveCollectiveTags",    "pinCollectiveSchedule",
    "setCollectiveTagWindow",
};

bool isCollectiveName(const std::string& s) {
  return std::any_of(std::begin(kCollectives), std::end(kCollectives),
                     [&](const char* c) { return s == c; });
}

/// Does the token range [b, e) contain a rank() call (any receiver)?
bool mentionsRankCall(const std::vector<Token>& toks, std::size_t b,
                      std::size_t e) {
  for (std::size_t i = b; i + 1 < e; ++i) {
    if (toks[i].kind == Token::Kind::kIdent &&
        (toks[i].text == "rank" || toks[i].text == "worldRank" ||
         toks[i].text == "myLocalRank") &&
        isPunct(toks[i + 1], "(")) {
      return true;
    }
  }
  return false;
}

/// End index (exclusive) of the statement or block starting at `i`:
/// a `{...}` block to its matching brace, else a single statement to ';'.
std::size_t statementEnd(const std::vector<Token>& toks, std::size_t i) {
  if (i >= toks.size()) return i;
  if (isPunct(toks[i], "{")) {
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
      if (isPunct(toks[j], "{")) ++depth;
      if (isPunct(toks[j], "}")) {
        --depth;
        if (depth == 0) return j + 1;
      }
    }
    return toks.size();
  }
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (isPunct(toks[j], ";")) return j + 1;
  }
  return toks.size();
}

void checkRankBranch(const FileContext& fc, std::vector<Finding>& findings) {
  const auto& toks = fc.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const bool isIf = toks[i].text == "if";
    const bool isLoop = toks[i].text == "while" || toks[i].text == "for" ||
                        toks[i].text == "switch";
    if (!isIf && !isLoop) continue;
    if (!isPunct(toks[i + 1], "(")) continue;
    std::vector<std::pair<std::size_t, std::size_t>> condArgs;
    const std::size_t close = splitArgs(toks, i + 1, condArgs);
    if (close >= toks.size()) continue;
    if (!mentionsRankCall(toks, i + 1, close)) continue;
    // The whole if/else chain is rank-dependent once the condition is.
    std::size_t bodyBegin = close + 1;
    std::size_t bodyEnd = statementEnd(toks, bodyBegin);
    while (isIf && bodyEnd < toks.size() && isIdent(toks[bodyEnd], "else")) {
      bodyEnd = statementEnd(toks, bodyEnd + 1);
    }
    for (std::size_t j = bodyBegin; j + 1 < bodyEnd; ++j) {
      const bool viaMember =
          j > 0 && (isPunct(toks[j - 1], ".") || isPunct(toks[j - 1], "->"));
      if (!viaMember) continue;
      if (toks[j].kind != Token::Kind::kIdent ||
          !isCollectiveName(toks[j].text)) {
        continue;
      }
      const std::size_t call = skipTemplateArgs(toks, j + 1);
      if (call >= toks.size() || !isPunct(toks[call], "(")) continue;
      findings.push_back(
          {fc.path, toks[j].line, Rule::kRankBranch,
           "collective '" + toks[j].text +
               "' inside a rank()-dependent branch: if any rank skips or "
               "reorders it, the lockstep tag stream desynchronizes"});
    }
  }
}

// ---- rule: dropped-span ---------------------------------------------------

void checkDroppedSpan(const FileContext& fc, std::vector<Finding>& findings) {
  const auto& toks = fc.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (isIdent(toks[i], "obs") && isPunct(toks[i + 1], "::") &&
        isIdent(toks[i + 2], "Span") && isPunct(toks[i + 3], "(")) {
      findings.push_back(
          {fc.path, toks[i].line, Rule::kDroppedSpan,
           "obs::Span constructed as a temporary: it is destroyed at the "
           "end of this expression and the span measures (almost) nothing"});
    }
  }
}

// ---- rule: hot-alloc ------------------------------------------------------

const char* const kAllocMembers[] = {
    "push_back", "emplace_back", "resize",  "reserve", "assign",
    "insert",    "emplace",      "append",  "clear",
};
const char* const kAllocFree[] = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared", "to_string",
};

bool inZeroAllocRange(const FileContext& fc, int line) {
  return std::any_of(fc.zeroAllocRanges.begin(), fc.zeroAllocRanges.end(),
                     [&](const std::pair<int, int>& r) {
                       return line > r.first && line < r.second;
                     });
}

void checkHotAlloc(const FileContext& fc, std::vector<Finding>& findings) {
  if (fc.zeroAllocRanges.empty()) return;
  const auto& toks = fc.tokens;
  auto report = [&](const Token& t, const std::string& what) {
    findings.push_back({fc.path, t.line, Rule::kHotAlloc,
                        what + " inside a zero-alloc region"});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || !inZeroAllocRange(fc, t.line)) {
      continue;
    }
    if (t.text == "new" && !(i > 0 && isPunct(toks[i - 1], "::"))) {
      report(t, "operator new");
      continue;
    }
    const bool called =
        i + 1 < toks.size() &&
        isPunct(toks[skipTemplateArgs(toks, i + 1)], "(");
    if (!called) continue;
    const bool viaMember =
        i > 0 && (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->"));
    if (viaMember && std::any_of(std::begin(kAllocMembers),
                                 std::end(kAllocMembers),
                                 [&](const char* m) { return t.text == m; })) {
      report(t, "container ." + t.text + "()");
      continue;
    }
    if (!viaMember && std::any_of(std::begin(kAllocFree), std::end(kAllocFree),
                                  [&](const char* m) { return t.text == m; })) {
      report(t, t.text + "()");
    }
  }
}

// ---- rule: env-knob-doc ---------------------------------------------------

void checkEnvKnobDoc(const FileContext& fc, const std::string& readme,
                     bool haveReadme, std::vector<Finding>& findings) {
  const auto& toks = fc.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        (toks[i].text != "getenv" && toks[i].text != "envInt")) {
      continue;
    }
    if (!isPunct(toks[i + 1], "(") ||
        toks[i + 2].kind != Token::Kind::kString) {
      continue;
    }
    const std::string& knob = toks[i + 2].text;
    if (knob.rfind("LISI_", 0) != 0) continue;
    if (!haveReadme) {
      findings.push_back({fc.path, toks[i].line, Rule::kEnvKnobDoc,
                          "cannot verify knob " + knob +
                              ": no README.md under --root"});
      continue;
    }
    if (readme.find(knob) == std::string::npos) {
      findings.push_back({fc.path, toks[i].line, Rule::kEnvKnobDoc,
                          "env knob " + knob +
                              " is read here but never documented in "
                              "README.md"});
    }
  }
}

// ---- rule: abi-boundary ---------------------------------------------------

// Keywords that cannot appear in a translation unit a C compiler accepts.
// `extern "C"` guards are fine (extern is shared); so is everything from
// <stdint.h>.  The rule is lexical on purpose: the ABI header has no
// business being subtle enough to fool it.
const char* const kCxxOnlyKeywords[] = {
    "template", "typename", "namespace", "class",     "throw",
    "try",      "catch",    "virtual",   "constexpr",
};

void checkAbiBoundary(const FileContext& fc, std::vector<Finding>& findings) {
  if (!fc.inAbiDir) return;
  const auto& toks = fc.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (t.text == "std" && i + 1 < toks.size() && isPunct(toks[i + 1], "::")) {
      findings.push_back(
          {fc.path, t.line, Rule::kAbiBoundary,
           "std:: qualifier in an ABI header; only <stdint.h> types may "
           "cross the C plugin boundary"});
      continue;
    }
    for (const char* kw : kCxxOnlyKeywords) {
      if (t.text == kw) {
        findings.push_back(
            {fc.path, t.line, Rule::kAbiBoundary,
             "C++ keyword '" + t.text +
                 "' in an ABI header; plugins compile this with a plain C "
                 "compiler"});
        break;
      }
    }
  }
}

// ---- driver ---------------------------------------------------------------

bool hasComponent(const fs::path& p, const std::string& name) {
  return std::any_of(p.begin(), p.end(),
                     [&](const fs::path& c) { return c == name; });
}

bool lintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

struct Options {
  std::set<std::string> enabledRules;  // empty = all
  std::string root = ".";
  std::vector<std::string> paths;
  bool listRules = false;
};

bool ruleEnabled(const Options& opt, Rule r) {
  return opt.enabledRules.empty() || opt.enabledRules.count(info(r).id) != 0;
}

void lintFile(const Options& opt, const fs::path& path,
              const std::string& readme, bool haveReadme,
              std::vector<Finding>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "lisi_lint: cannot read " << path.string() << "\n";
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  FileContext fc;
  fc.path = path.generic_string();
  fc.inTestsDir = hasComponent(path, "tests");
  fc.inFixtures = hasComponent(path, "lint_fixtures");
  fc.isTagRegistry = path.filename() == "tags.hpp";
  fc.inAbiDir = hasComponent(path, "abi");
  lex(buf.str(), fc.tokens, fc.comments);

  std::vector<Finding> raw;
  parseDirectives(fc, raw);  // bad-suppression findings
  if (ruleEnabled(opt, Rule::kRawTag)) checkRawTag(fc, raw);
  if (ruleEnabled(opt, Rule::kRankBranch)) checkRankBranch(fc, raw);
  if (ruleEnabled(opt, Rule::kDroppedSpan)) checkDroppedSpan(fc, raw);
  if (ruleEnabled(opt, Rule::kHotAlloc)) checkHotAlloc(fc, raw);
  if (ruleEnabled(opt, Rule::kEnvKnobDoc)) {
    checkEnvKnobDoc(fc, readme, haveReadme, raw);
  }
  if (ruleEnabled(opt, Rule::kAbiBoundary)) checkAbiBoundary(fc, raw);
  for (Finding& f : raw) {
    if (f.rule == Rule::kBadSuppression && !ruleEnabled(opt, f.rule)) continue;
    if (!suppressed(fc, f.line, f.rule)) out.push_back(std::move(f));
  }
}

void collect(const fs::path& p, bool explicitArg, std::vector<fs::path>& out) {
  if (fs::is_directory(p)) {
    // Seeded-violation fixtures are skipped during recursion so the
    // verify-wide sweep stays clean; passing the directory explicitly (as
    // tests/lint_test does) still scans it.
    if (!explicitArg && p.filename() == "lint_fixtures") return;
    std::vector<fs::path> entries;
    for (const auto& e : fs::directory_iterator(p)) entries.push_back(e.path());
    std::sort(entries.begin(), entries.end());
    for (const auto& e : entries) collect(e, false, out);
    return;
  }
  if (fs::is_regular_file(p) && (explicitArg || lintableExtension(p))) {
    out.push_back(p);
  }
}

int usage() {
  std::cerr
      << "usage: lisi_lint [--root DIR] [--rules id,id,...] [--list-rules] "
         "PATH...\n"
         "  Scans C++ sources (recursing into directories) for violations\n"
         "  of the repo-specific rules; see docs/STATIC_ANALYSIS.md.\n"
         "  --root DIR     repo root for README.md lookup (default: .)\n"
         "  --rules a,b    run only these rule ids (default: all; the\n"
         "                 LISI_LINT_RULES env knob sets the same filter)\n"
         "  --list-rules   print `id<TAB>hint` per rule and exit\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const char* env = std::getenv("LISI_LINT_RULES")) {
    std::stringstream ss(env);
    std::string id;
    while (std::getline(ss, id, ',')) {
      if (!trim(id).empty()) opt.enabledRules.insert(trim(id));
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      opt.listRules = true;
    } else if (arg == "--root" && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (arg == "--rules" && i + 1 < argc) {
      opt.enabledRules.clear();
      std::stringstream ss(argv[++i]);
      std::string id;
      while (std::getline(ss, id, ',')) {
        if (!trim(id).empty()) opt.enabledRules.insert(trim(id));
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.listRules) {
    for (const RuleInfo& ri : kRules) {
      std::cout << ri.id << "\t" << ri.hint << "\n";
    }
    return 0;
  }
  if (opt.paths.empty()) return usage();
  for (const std::string& id : opt.enabledRules) {
    if (!knownRuleId(id)) {
      std::cerr << "lisi_lint: unknown rule id '" << id << "'\n";
      return 2;
    }
  }

  std::string readme;
  bool haveReadme = false;
  {
    std::ifstream in(fs::path(opt.root) / "README.md", std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      readme = buf.str();
      haveReadme = true;
    }
  }

  std::vector<fs::path> files;
  for (const std::string& p : opt.paths) {
    if (!fs::exists(p)) {
      std::cerr << "lisi_lint: no such path: " << p << "\n";
      return 2;
    }
    collect(p, true, files);
  }

  std::vector<Finding> findings;
  for (const fs::path& f : files) {
    lintFile(opt, f, readme, haveReadme, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  for (const Finding& f : findings) {
    const RuleInfo& ri = info(f.rule);
    std::cout << f.file << ":" << f.line << ": [" << ri.id << "] " << f.message
              << "\n  hint: " << ri.hint << "\n";
  }
  std::cout << "lisi_lint: " << files.size() << " file(s), "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
