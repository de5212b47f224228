#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

namespace ones::lint {

namespace {

/// Decision-path modules for R2: hash order anywhere in these can reach a
/// scheduling / elastic / evolution decision.
const std::set<std::string>& decision_modules() {
  static const std::set<std::string> mods = {"sim", "sched", "core", "elastic",
                                             "predict", "drl", "cluster"};
  return mods;
}

struct SplitSource {
  std::vector<std::string> raw;       ///< original lines (R4 reads include paths)
  std::vector<std::string> code;      ///< literals/comments blanked out
  std::vector<std::string> comments;  ///< only comment text, rest blanked
};

/// Blank comments and string/char literals out of `content` (preserving
/// line structure) so pattern matching cannot fire inside either; keep the
/// comment text separately for annotation lookup. Handles //, /**/, escape
/// sequences and R"delim(...)delim" raw strings.
SplitSource split_source(const std::string& content) {
  enum class State { Normal, LineComment, BlockComment, String, Char, RawString };
  State state = State::Normal;
  std::string raw_delim;  // the ")delim" that terminates the raw string
  std::string code_line, comment_line;
  SplitSource out;
  auto flush = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };
  {
    std::string line;
    for (char c : content) {
      if (c == '\n') {
        out.raw.push_back(line);
        line.clear();
      } else {
        line += c;
      }
    }
    out.raw.push_back(line);
  }
  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::LineComment) state = State::Normal;
      flush();
      continue;
    }
    switch (state) {
      case State::Normal:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          code_line += "  ";
          comment_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          code_line += "  ";
          comment_line += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // R"delim( — capture the delimiter up to the '('.
          std::size_t j = i + 2;
          std::string delim;
          while (j < n && content[j] != '(' && content[j] != '\n') delim += content[j++];
          if (j < n && content[j] == '(') {
            state = State::RawString;
            raw_delim = ")" + delim + "\"";
            for (std::size_t k = i; k <= j; ++k) {
              code_line += ' ';
              comment_line += ' ';
            }
            i = j;
          } else {
            code_line += c;
            comment_line += ' ';
          }
        } else if (c == '"') {
          state = State::String;
          code_line += ' ';
          comment_line += ' ';
        } else if (c == '\'') {
          state = State::Char;
          code_line += ' ';
          comment_line += ' ';
        } else {
          code_line += c;
          comment_line += ' ';
        }
        break;
      case State::LineComment:
        code_line += ' ';
        comment_line += c;
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          state = State::Normal;
          code_line += "  ";
          comment_line += "  ";
          ++i;
        } else {
          code_line += ' ';
          comment_line += c;
        }
        break;
      case State::String:
        code_line += ' ';
        comment_line += ' ';
        if (c == '\\') {
          if (next != '\0' && next != '\n') {
            code_line += ' ';
            comment_line += ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::Normal;
        }
        break;
      case State::Char:
        code_line += ' ';
        comment_line += ' ';
        if (c == '\\') {
          if (next != '\0' && next != '\n') {
            code_line += ' ';
            comment_line += ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::Normal;
        }
        break;
      case State::RawString:
        code_line += ' ';
        comment_line += ' ';
        if (c == raw_delim[0] && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            code_line += ' ';
            comment_line += ' ';
          }
          i += raw_delim.size() - 1;
          state = State::Normal;
        }
        break;
    }
  }
  flush();
  return out;
}

/// Path component immediately after the last "src" component, or "" when the
/// file is not under a src/ tree. Works for the real tree and for test
/// fixtures laid out as .../lint_fixtures/src/<module>/....
std::string module_of(const std::string& path) {
  std::vector<std::string> parts;
  std::string part;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!part.empty()) parts.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  if (!part.empty()) parts.push_back(part);
  for (std::size_t i = parts.size(); i-- > 1;) {
    if (parts[i - 1] == "src") return parts[i];
  }
  return "";
}

bool in_src(const std::string& path) { return !module_of(path).empty(); }

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Per-line `// ones-lint: <tag>(<reason>)` map: tag -> has-nonempty-reason.
using Annotations = std::vector<std::map<std::string, bool>>;

const std::set<std::string>& known_tags() {
  static const std::set<std::string> tags = {
      "wall-clock-ok", "unordered-ok", "unordered-iteration-ok", "assert-ok",
      "include-ok"};
  return tags;
}

bool nonempty_reason(const std::string& reason) {
  return std::any_of(reason.begin(), reason.end(),
                     [](unsigned char c) { return !std::isspace(c); });
}

/// Parses both the single-line form (`ones-lint: <tag>(<reason>)`, effective
/// on its own line and the next) and the region form (`ones-lint-begin:
/// <tag>(<reason>)` ... `ones-lint-end: <tag>`). Unknown tags and regions left open
/// at end-of-file are findings themselves (rule "ANN") — a typo must not
/// silently disable a rule.
Annotations parse_annotations(const std::string& path,
                              const std::vector<std::string>& comments,
                              std::vector<Finding>& findings) {
  static const std::regex line_re(R"(ones-lint:\s*([a-z-]+)\s*\(([^)]*)\))");
  static const std::regex begin_re(R"(ones-lint-begin:\s*([a-z-]+)\s*\(([^)]*)\))");
  static const std::regex end_re(R"(ones-lint-end:\s*([a-z-]+))");
  Annotations out(comments.size());
  std::map<std::string, int> open_regions;  // tag -> begin line (1-based)
  for (std::size_t i = 0; i < comments.size(); ++i) {
    const std::string& text = comments[i];
    for (auto it = std::sregex_iterator(text.begin(), text.end(), line_re);
         it != std::sregex_iterator(); ++it) {
      const std::string tag = (*it)[1].str();
      if (!known_tags().count(tag)) {
        findings.push_back({path, static_cast<int>(i + 1), "ANN",
                            "unknown ones-lint tag '" + tag + "'"});
        continue;
      }
      out[i][tag] = out[i][tag] || nonempty_reason((*it)[2].str());
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), begin_re);
         it != std::sregex_iterator(); ++it) {
      const std::string tag = (*it)[1].str();
      if (!known_tags().count(tag)) {
        findings.push_back({path, static_cast<int>(i + 1), "ANN",
                            "unknown ones-lint tag '" + tag + "'"});
      } else if (!nonempty_reason((*it)[2].str())) {
        findings.push_back({path, static_cast<int>(i + 1), "ANN",
                            "ones-lint-begin: " + tag + " needs a non-empty reason"});
      } else {
        open_regions[tag] = static_cast<int>(i + 1);
      }
    }
    for (const auto& [tag, from] : open_regions) out[i][tag] = true;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), end_re);
         it != std::sregex_iterator(); ++it) {
      open_regions.erase((*it)[1].str());
    }
  }
  for (const auto& [tag, from] : open_regions) {
    findings.push_back({path, from, "ANN",
                        "ones-lint-begin: " + tag +
                            " never closed (missing `ones-lint-end: " + tag + "`)"});
  }
  return out;
}

/// True when line `i` (0-based) or the line above carries `tag` with a
/// non-empty reason.
bool annotated(const Annotations& ann, std::size_t i, const std::string& tag) {
  for (std::size_t j = i > 0 ? i - 1 : i; j <= i; ++j) {
    auto it = ann[j].find(tag);
    if (it != ann[j].end() && it->second) return true;
  }
  return false;
}

struct R1Pattern {
  std::regex re;
  std::string what;
};

const std::vector<R1Pattern>& r1_patterns() {
  static const std::vector<R1Pattern> pats = [] {
    std::vector<R1Pattern> v;
    v.push_back({std::regex(R"(std::chrono)"), "std::chrono (wall-clock)"});
    v.push_back({std::regex(R"(\b(?:steady_clock|system_clock|high_resolution_clock)\b)"),
                 "chrono clock"});
    v.push_back({std::regex(R"(\brandom_device\b)"), "std::random_device"});
    v.push_back({std::regex(R"(\bs?rand\s*\()"), "rand()/srand()"});
    v.push_back({std::regex(R"(\b(?:gettimeofday|clock_gettime|timespec_get)\s*\()"),
                 "OS clock call"});
    v.push_back({std::regex(R"(\b(?:time|clock)\s*\(\s*(?:nullptr|NULL|0)?\s*\))"),
                 "::time()/::clock()"});
    return v;
  }();
  return pats;
}

void check_r1(const std::string& path, const SplitSource& src, const Annotations& ann,
              const Options& options, std::vector<Finding>& out) {
  for (const auto& allow : options.wall_clock_allowlist) {
    if (has_suffix(path, allow)) return;
  }
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    for (const auto& pat : r1_patterns()) {
      if (!std::regex_search(src.code[i], pat.re)) continue;
      if (annotated(ann, i, "wall-clock-ok")) continue;
      out.push_back({path, static_cast<int>(i + 1), "R1",
                     pat.what +
                         ": wall-clock and ambient randomness are banned "
                         "(determinism contract); seed from ones::Rng / use sim "
                         "time, or annotate a cosmetic stderr-only site with "
                         "`// ones-lint: wall-clock-ok(<reason>)`"});
      break;  // one R1 finding per line is enough
    }
  }
}

/// Names of variables declared in this file with an unordered type (directly
/// or through a local `using X = std::unordered_...` alias). Textual and
/// file-local by design; cross-file aliases are covered by the declaration
/// rule at the alias definition site.
std::set<std::string> unordered_names(const SplitSource& src) {
  std::string flat;
  for (const auto& line : src.code) {
    flat += line;
    flat += ' ';
  }
  std::set<std::string> names;
  static const std::regex decl(
      R"(std::unordered_(?:map|set)\s*<[^;{}()]*>\s+([A-Za-z_]\w*)\s*[;({=])");
  for (auto it = std::sregex_iterator(flat.begin(), flat.end(), decl);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  static const std::regex alias(R"(using\s+([A-Za-z_]\w*)\s*=\s*std::unordered_)");
  std::set<std::string> aliases;
  for (auto it = std::sregex_iterator(flat.begin(), flat.end(), alias);
       it != std::sregex_iterator(); ++it) {
    aliases.insert((*it)[1].str());
  }
  for (const auto& a : aliases) {
    const std::regex alias_decl("\\b" + a + R"(\s*(?:<[^;{}()]*>)?\s+([A-Za-z_]\w*)\s*[;({=])");
    for (auto it = std::sregex_iterator(flat.begin(), flat.end(), alias_decl);
         it != std::sregex_iterator(); ++it) {
      names.insert((*it)[1].str());
    }
  }
  return names;
}

void check_r2(const std::string& path, const SplitSource& src, const Annotations& ann,
              std::vector<Finding>& out) {
  const std::string module = module_of(path);
  if (!decision_modules().count(module)) return;

  static const std::regex use(R"(std::unordered_(?:map|set)\b)");
  static const std::regex include_line(R"(^\s*#\s*include\b)");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    if (!std::regex_search(src.code[i], use)) continue;
    if (std::regex_search(src.code[i], include_line)) continue;
    if (annotated(ann, i, "unordered-ok") || annotated(ann, i, "unordered-iteration-ok")) {
      continue;
    }
    out.push_back({path, static_cast<int>(i + 1), "R2",
                   "std::unordered_map/set in decision-path module '" + module +
                       "': annotate with `// ones-lint: unordered-ok(<why hash "
                       "order cannot reach a decision>)` or use an ordered "
                       "container"});
  }

  const std::set<std::string> names = unordered_names(src);
  if (names.empty()) return;
  static const std::regex range_for(R"(for\s*\([^;)]*:\s*(?:\w+(?:\.|->))*([A-Za-z_]\w*)\s*\))");
  static const std::regex begin_call(R"(\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    std::string hit;
    std::smatch m;
    if (std::regex_search(line, m, range_for) && names.count(m[1].str())) {
      hit = m[1].str();
    } else if (line.find("for") != std::string::npos &&
               std::regex_search(line, m, begin_call) && names.count(m[1].str())) {
      hit = m[1].str();
    }
    if (hit.empty()) continue;
    if (annotated(ann, i, "unordered-iteration-ok")) continue;
    out.push_back({path, static_cast<int>(i + 1), "R2",
                   "iteration over unordered container '" + hit +
                       "' in decision-path module '" + module_of(path) +
                       "': hash order must not feed decisions — iterate a "
                       "sorted/insertion-ordered copy, or annotate with `// "
                       "ones-lint: unordered-iteration-ok(<reason>)`"});
  }
}

void check_r3(const std::string& path, const SplitSource& src, const Annotations& ann,
              std::vector<Finding>& out) {
  if (!in_src(path)) return;
  static const std::regex assert_call(R"(\bassert\s*\()");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    if (!std::regex_search(src.code[i], assert_call)) continue;
    if (annotated(ann, i, "assert-ok")) continue;
    out.push_back({path, static_cast<int>(i + 1), "R3",
                   "assert() in library code: use ONES_EXPECT(_MSG) "
                   "(common/expect.hpp) so tests can assert on the throw"});
  }
}

void check_r4(const std::string& path, const SplitSource& src, const Annotations& ann,
              std::vector<Finding>& out) {
  if (!in_src(path)) return;
  static const std::regex directive(R"(^\s*#\s*include\b)");
  static const std::regex quoted(R"re(^\s*#\s*include\s*"([^"]+)")re");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    // The path literal is blanked in the code view; gate on the directive
    // being real code, then read the path from the raw line.
    if (!std::regex_search(src.code[i], directive)) continue;
    std::smatch m;
    if (!std::regex_search(src.raw[i], m, quoted)) continue;
    if (annotated(ann, i, "include-ok")) continue;
    const std::string inc = m[1].str();
    if (inc.find("../") != std::string::npos) {
      out.push_back({path, static_cast<int>(i + 1), "R4",
                     "relative include \"" + inc +
                         "\": include as \"module/file.hpp\" from the src/ root"});
    } else if (inc.find('/') == std::string::npos) {
      out.push_back({path, static_cast<int>(i + 1), "R4",
                     "bare include \"" + inc +
                         "\": include as \"module/file.hpp\" from the src/ root"});
    }
  }
}

}  // namespace

Options default_options() {
  Options o;
  o.wall_clock_allowlist = {
      "src/exp/progress.cpp",  // progress/ETA reporter: cosmetic stderr only
      "src/exp/progress.hpp",
      "bench/harness.hpp",  // bench::ScopedTimer: cosmetic stderr only
  };
  return o;
}

std::vector<Finding> lint_file(const std::string& path, const std::string& content,
                               const Options& options) {
  const SplitSource src = split_source(content);
  std::vector<Finding> out;
  const Annotations ann = parse_annotations(path, src.comments, out);
  if (options.r1) check_r1(path, src, ann, options, out);
  if (options.r2) check_r2(path, src, ann, out);
  if (options.r3) check_r3(path, src, ann, out);
  if (options.r4) check_r4(path, src, ann, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots,
                               const Options& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
  };
  for (const auto& root : roots) {
    fs::path rp(root);
    if (fs::is_regular_file(rp)) {
      files.push_back(rp.generic_string());
    } else if (fs::is_directory(rp)) {
      for (const auto& entry : fs::recursive_directory_iterator(rp)) {
        if (entry.is_regular_file() && is_source(entry.path())) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else {
      throw std::runtime_error("ones_lint: no such file or directory: " + root);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> out;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("ones_lint: cannot read " + file);
    std::ostringstream ss;
    ss << in.rdbuf();
    auto findings = lint_file(file, ss.str(), options);
    out.insert(out.end(), findings.begin(), findings.end());
  }
  return out;
}

std::string format(const Finding& f) {
  std::ostringstream os;
  os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message;
  return os.str();
}

}  // namespace ones::lint
