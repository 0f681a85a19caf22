// fjb_check — output checker for the benchmark, independent of the program.
//
// It links nothing of the repository: it tokenizes records itself (lower-
// cased alphanumeric words, duplicates dropped — the set semantics of the
// paper's word tokens) and decides Jaccard >= tau with exact integer
// arithmetic on the intersection and union sizes.
//
//   fjb_check selfjoin --input=F --out=F --tau=0.8 --sample=N --seed=S
//   fjb_check rsjoin --r=F --s=F --out=F --tau=0.8 --sample=N --seed=S
//       Every output line holds two complete input records, byte-equal to
//       the input (rid1 < rid2 for a self-join; first from R and second
//       from S for an R-S join). No pair appears twice. Every printed
//       similarity matches the recomputed one and is >= tau. Completeness:
//       for N seeded-random records (0 = all), a brute-force scan that uses
//       only the length bound finds every partner, and each such pair must
//       be in the output.
//   fjb_check serve --corpus=F --requests=F --replies=F --tau_floor=0.5
//             --sample=N --seed=S
//       Replays the request script against the checker's own model of the
//       live set (corpus + inserts - removes). Every reply is OK; probe
//       replies are rid-ascending, topk replies (sim desc, rid asc); every
//       returned rid is live and its printed similarity matches and clears
//       the threshold. N seeded-random probe/topk requests (0 = all) get a
//       brute-force answer that must equal the reply exactly — a topk
//       reply may leave out no better record.
//
// Prints one line "ok <summary>" and exits 0, or prints the first errors
// and exits 1.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace {

using TokenSet = std::vector<uint32_t>;  // sorted, distinct

struct Args {
  std::map<std::string, std::string> values;
  std::string mode;

  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const size_t eq = a.find('=');
        values[a.substr(2, eq == std::string::npos ? std::string::npos
                                                    : eq - 2)] =
            eq == std::string::npos ? "1" : a.substr(eq + 1);
      } else if (mode.empty()) {
        mode = a;
      }
    }
  }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
};

// tau as an exact fraction num/den from its decimal spelling ("0.8").
struct Threshold {
  uint64_t num = 0;
  uint64_t den = 1;

  static bool Parse(const std::string& text, Threshold* out) {
    uint64_t num = 0, den = 1;
    bool dot = false, digit = false;
    for (char c : text) {
      if (c == '.' && !dot) {
        dot = true;
      } else if (c >= '0' && c <= '9' && den < 1000000000) {
        num = num * 10 + static_cast<uint64_t>(c - '0');
        if (dot) den *= 10;
        digit = true;
      } else {
        return false;
      }
    }
    if (!digit || num == 0 || num > den) return false;
    *out = Threshold{num, den};
    return true;
  }
  // inter / uni >= num / den
  bool Admits(uint64_t inter, uint64_t uni) const {
    return inter * den >= num * uni;
  }
  // Length bound of Jaccard: ceil(tau*l) <= l' <= floor(l/tau).
  uint64_t MinLen(uint64_t l) const { return (num * l + den - 1) / den; }
  uint64_t MaxLen(uint64_t l) const { return (l * den) / num; }
};

class Dictionary {
 public:
  TokenSet Tokenize(std::string_view text) {
    TokenSet ids;
    std::string word;
    auto flush = [&] {
      if (word.empty()) return;
      auto [it, inserted] =
          ids_.try_emplace(word, static_cast<uint32_t>(ids_.size()));
      ids.push_back(it->second);
      word.clear();
    };
    for (char raw : text) {
      const auto c = static_cast<unsigned char>(raw);
      if (std::isalnum(c)) {
        word.push_back(static_cast<char>(std::tolower(c)));
      } else {
        flush();
      }
    }
    flush();
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }

  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

uint64_t Overlap(const TokenSet& a, const TokenSet& b) {
  uint64_t n = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n, ++i, ++j;
    }
  }
  return n;
}

struct Similarity {
  uint64_t inter = 0;
  uint64_t uni = 0;
  double value() const {
    return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
  }
};

Similarity Jaccard(const TokenSet& a, const TokenSet& b) {
  const uint64_t inter = Overlap(a, b);
  return Similarity{inter, a.size() + b.size() - inter};
}

std::vector<std::string_view> SplitTabs(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  std::string copy(s);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return !copy.empty() && end == copy.c_str() + copy.size() &&
         std::isfinite(*out);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

std::vector<std::string_view> Lines(const std::string& text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.emplace_back(text.data() + start, nl - start);
    start = nl + 1;
  }
  return lines;
}

// splitmix64: the checker's own seeded sampler.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Indexes of `k` distinct items of [0, n), or all of them when k == 0 or
/// k >= n, ascending.
std::vector<size_t> Sample(size_t n, size_t k, uint64_t seed) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  if (k == 0 || k >= n) return all;
  Rng rng{seed};
  for (size_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + rng.Next() % (n - i)]);
  }
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

class Errors {
 public:
  void Add(const std::string& message) {
    if (count_++ < 10) std::fprintf(stderr, "fjb_check: %s\n", message.c_str());
  }
  bool any() const { return count_ > 0; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// ------------------------------------------------------------------ batch

struct Relation {
  std::string text;  // the whole file; records are views into it
  std::vector<std::string_view> lines;
  std::vector<uint64_t> rids;
  std::vector<TokenSet> tokens;
  std::unordered_map<uint64_t, size_t> by_rid;
};

bool LoadRelation(const std::string& path, Dictionary* dict, Relation* rel,
                  Errors* errors) {
  if (!ReadFile(path, &rel->text)) {
    errors->Add("cannot read " + path);
    return false;
  }
  rel->lines = Lines(rel->text);
  rel->rids.reserve(rel->lines.size());
  rel->tokens.reserve(rel->lines.size());
  for (std::string_view line : rel->lines) {
    const auto fields = SplitTabs(line);
    uint64_t rid = 0;
    if (fields.size() != 4 || !ParseU64(fields[0], &rid)) {
      errors->Add("malformed input record in " + path + ": " +
                  std::string(line.substr(0, 60)));
      return false;
    }
    if (!rel->by_rid.emplace(rid, rel->rids.size()).second) {
      errors->Add("duplicate rid " + std::to_string(rid) + " in " + path);
      return false;
    }
    rel->rids.push_back(rid);
    std::string attr(fields[1]);
    attr += ' ';
    attr += fields[2];
    rel->tokens.push_back(dict->Tokenize(attr));
  }
  return true;
}

struct PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    return std::hash<uint64_t>()(p.first * 0x9e3779b97f4a7c15ULL ^ p.second);
  }
};
using PairSet = std::unordered_set<std::pair<uint64_t, uint64_t>, PairHash>;

int CheckBatch(const Args& args, bool self) {
  Errors errors;
  Threshold tau;
  if (!Threshold::Parse(args.Get("tau", "0.8"), &tau)) {
    std::fprintf(stderr, "fjb_check: bad --tau\n");
    return 2;
  }
  Dictionary dict;
  Relation r_rel, s_rel;
  if (!LoadRelation(args.Get(self ? "input" : "r"), &dict, &r_rel, &errors)) {
    return 1;
  }
  if (!self && !LoadRelation(args.Get("s"), &dict, &s_rel, &errors)) return 1;
  const Relation& r = r_rel;
  const Relation& s = self ? r_rel : s_rel;

  std::string out_text;
  if (!ReadFile(args.Get("out"), &out_text)) {
    errors.Add("cannot read output " + args.Get("out"));
    return 1;
  }
  PairSet pairs;
  uint64_t lines = 0;
  std::string rebuilt;
  for (std::string_view line : Lines(out_text)) {
    ++lines;
    const auto f = SplitTabs(line);
    uint64_t rid1 = 0, rid2 = 0;
    double printed = 0;
    if (f.size() != 9 || !ParseU64(f[0], &rid1) || !ParseU64(f[1], &rid2) ||
        !ParseDouble(f[2], &printed)) {
      errors.Add("malformed output line " + std::to_string(lines));
      continue;
    }
    if (self && rid1 >= rid2) {
      errors.Add("rid1 >= rid2 on output line " + std::to_string(lines));
    }
    auto i1 = r.by_rid.find(rid1);
    auto i2 = s.by_rid.find(rid2);
    if (i1 == r.by_rid.end() || i2 == s.by_rid.end()) {
      errors.Add("unknown rid on output line " + std::to_string(lines));
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = side == 0 ? r : s;
      const size_t at = side == 0 ? i1->second : i2->second;
      rebuilt.assign(f[side == 0 ? 0 : 1]);
      for (int k = 0; k < 3; ++k) {
        rebuilt += '\t';
        rebuilt += f[3 + 3 * side + k];
      }
      if (rebuilt != rel.lines[at]) {
        errors.Add("record " + std::to_string(rel.rids[at]) +
                   " differs from the input on output line " +
                   std::to_string(lines));
      }
    }
    if (!pairs.emplace(rid1, rid2).second) {
      errors.Add("duplicate pair " + std::to_string(rid1) + "," +
                 std::to_string(rid2));
    }
    const Similarity sim = Jaccard(r.tokens[i1->second], s.tokens[i2->second]);
    if (!tau.Admits(sim.inter, sim.uni)) {
      errors.Add("pair " + std::to_string(rid1) + "," + std::to_string(rid2) +
                 " is below tau");
    }
    if (std::fabs(sim.value() - printed) > 5.01e-7) {
      errors.Add("pair " + std::to_string(rid1) + "," + std::to_string(rid2) +
                 " prints similarity " + std::string(f[2]) + ", recomputed " +
                 std::to_string(sim.value()));
    }
  }

  // Completeness on a seeded sample of R-side records: brute force over
  // the other side, pruned only by the length bound. The other side is laid
  // out flat in length order so a length window is one contiguous scan.
  std::vector<size_t> by_len(s.tokens.size());
  for (size_t i = 0; i < by_len.size(); ++i) by_len[i] = i;
  std::stable_sort(by_len.begin(), by_len.end(), [&](size_t a, size_t b) {
    return s.tokens[a].size() < s.tokens[b].size();
  });
  std::vector<uint32_t> flat;
  std::vector<size_t> start{0};
  for (size_t i : by_len) {
    flat.insert(flat.end(), s.tokens[i].begin(), s.tokens[i].end());
    start.push_back(flat.size());
  }
  std::vector<uint32_t> mark(dict.size(), 0);
  const auto sampled =
      Sample(r.tokens.size(), std::stoull(args.Get("sample", "0")),
             std::stoull(args.Get("seed", "1")));
  uint64_t expected = 0;
  uint32_t stamp = 0;
  for (size_t x : sampled) {
    const TokenSet& tx = r.tokens[x];
    ++stamp;
    for (uint32_t t : tx) mark[t] = stamp;
    const uint64_t lo = tau.MinLen(tx.size()), hi = tau.MaxLen(tx.size());
    size_t k = static_cast<size_t>(
        std::lower_bound(by_len.begin(), by_len.end(), lo,
                         [&](size_t i, uint64_t l) {
                           return s.tokens[i].size() < l;
                         }) -
        by_len.begin());
    for (; k < by_len.size() && start[k + 1] - start[k] <= hi; ++k) {
      uint64_t inter = 0;
      for (size_t j = start[k]; j < start[k + 1]; ++j) {
        inter += mark[flat[j]] == stamp;
      }
      const uint64_t uni = tx.size() + (start[k + 1] - start[k]) - inter;
      const size_t y = by_len[k];
      if ((self && y == x) || !tau.Admits(inter, uni)) continue;
      ++expected;
      uint64_t a = r.rids[x], b = s.rids[y];
      if (self && a > b) std::swap(a, b);
      if (pairs.count({a, b}) == 0) {
        errors.Add("missing pair " + std::to_string(a) + "," +
                   std::to_string(b) + " (similarity " +
                   std::to_string(static_cast<double>(inter) / uni) + ")");
      }
    }
  }
  if (errors.any()) {
    std::fprintf(stderr, "fjb_check: %llu errors\n",
                 static_cast<unsigned long long>(errors.count()));
    return 1;
  }
  std::printf("ok pairs=%zu sampled=%zu sample_pairs=%llu\n", pairs.size(),
              sampled.size(), static_cast<unsigned long long>(expected));
  return 0;
}

// ------------------------------------------------------------------ serve

struct Answer {
  uint64_t rid = 0;
  double printed = 0;
  Similarity sim;
};

int CheckServe(const Args& args) {
  Errors errors;
  Threshold floor;
  if (!Threshold::Parse(args.Get("tau_floor", "0.5"), &floor)) {
    std::fprintf(stderr, "fjb_check: bad --tau_floor\n");
    return 2;
  }
  Dictionary dict;
  Relation corpus;
  if (!LoadRelation(args.Get("corpus"), &dict, &corpus, &errors)) return 1;
  std::unordered_map<uint64_t, TokenSet> live;
  live.reserve(corpus.rids.size() * 2);
  for (size_t i = 0; i < corpus.rids.size(); ++i) {
    live.emplace(corpus.rids[i], std::move(corpus.tokens[i]));
  }
  corpus = Relation{};

  std::string req_text, rep_text;
  if (!ReadFile(args.Get("requests"), &req_text) ||
      !ReadFile(args.Get("replies"), &rep_text)) {
    errors.Add("cannot read requests/replies");
    return 1;
  }
  const auto requests = Lines(req_text);
  const auto replies = Lines(rep_text);
  if (requests.size() != replies.size()) {
    errors.Add(std::to_string(requests.size()) + " requests but " +
               std::to_string(replies.size()) + " replies");
    return 1;
  }
  std::vector<size_t> probe_ids;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].rfind("probe ", 0) == 0 ||
        requests[i].rfind("topk ", 0) == 0) {
      probe_ids.push_back(i);
    }
  }
  std::unordered_set<size_t> brute;
  for (size_t i : Sample(probe_ids.size(), std::stoull(args.Get("sample", "0")),
                         std::stoull(args.Get("seed", "1")))) {
    brute.insert(probe_ids[i]);
  }

  uint64_t checked = 0, brute_forced = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string where = "request " + std::to_string(i + 1);
    std::istringstream req{std::string(requests[i])};
    std::istringstream rep{std::string(replies[i])};
    std::string verb, ok, rverb;
    req >> verb;
    rep >> ok >> rverb;
    if (ok != "OK" || rverb != verb) {
      errors.Add(where + " (" + verb + ") got: " +
                 std::string(replies[i].substr(0, 80)));
      continue;
    }
    ++checked;
    if (verb == "compact") continue;
    if (verb == "insert" || verb == "remove") {
      uint64_t rid = 0, echoed = 0;
      req >> rid;
      rep >> echoed;
      if (echoed != rid) errors.Add(where + " echoes the wrong rid");
      if (verb == "insert") {
        std::string text;
        std::getline(req, text);
        if (!live.emplace(rid, dict.Tokenize(text)).second) {
          errors.Add(where + " inserted a live rid but was answered OK");
        }
      } else if (live.erase(rid) == 0) {
        errors.Add(where + " removed an absent rid but was answered OK");
      }
      continue;
    }
    // probe <tau> <text> | topk <k> <text>
    std::string param, text;
    req >> param;
    std::getline(req, text);
    const TokenSet q = dict.Tokenize(text);
    Threshold tau = floor;
    size_t k = 0;
    if (verb == "probe") {
      if (!Threshold::Parse(param, &tau)) {
        errors.Add(where + " has a bad tau");
        continue;
      }
    } else {
      k = std::stoull(param);
    }
    size_t n = 0;
    rep >> n;
    std::vector<Answer> got;
    std::string item;
    while (rep >> item) {
      const size_t colon = item.find(':');
      Answer a;
      if (colon == std::string::npos ||
          !ParseU64(std::string_view(item).substr(0, colon), &a.rid) ||
          !ParseDouble(std::string_view(item).substr(colon + 1), &a.printed)) {
        errors.Add(where + " has a malformed answer " + item);
        break;
      }
      auto it = live.find(a.rid);
      if (it == live.end()) {
        errors.Add(where + " returns rid " + std::to_string(a.rid) +
                   ", which is not live");
        continue;
      }
      a.sim = Jaccard(q, it->second);
      if (std::fabs(a.sim.value() - a.printed) > 5.01e-5) {
        errors.Add(where + " prints " + item + ", recomputed " +
                   std::to_string(a.sim.value()));
      }
      if (!tau.Admits(a.sim.inter, a.sim.uni)) {
        errors.Add(where + " returns rid " + std::to_string(a.rid) +
                   " below the threshold");
      }
      got.push_back(a);
    }
    if (got.size() != n) errors.Add(where + " count differs from its list");
    if (verb == "topk" && got.size() > k) {
      errors.Add(where + " returns more than k");
    }
    // Exact order: probe by rid asc; topk by (sim desc, rid asc).
    auto before = [&](const Answer& a, const Answer& b) {
      if (verb == "probe") return a.rid < b.rid;
      const uint64_t lhs = a.sim.inter * b.sim.uni;
      const uint64_t rhs = b.sim.inter * a.sim.uni;
      return lhs != rhs ? lhs > rhs : a.rid < b.rid;
    };
    for (size_t j = 1; j < got.size(); ++j) {
      if (!before(got[j - 1], got[j])) {
        errors.Add(where + " is out of order at answer " + std::to_string(j));
        break;
      }
    }
    if (brute.count(i) == 0) continue;
    ++brute_forced;
    std::vector<Answer> want;
    for (const auto& [rid, tokens] : live) {
      const uint64_t len = tokens.size();
      if (len < tau.MinLen(q.size()) || len > tau.MaxLen(q.size())) continue;
      const Similarity sim = Jaccard(q, tokens);
      if (tau.Admits(sim.inter, sim.uni)) want.push_back({rid, 0, sim});
    }
    std::sort(want.begin(), want.end(), before);
    if (verb == "topk" && want.size() > k) want.resize(k);
    bool same = want.size() == got.size();
    for (size_t j = 0; same && j < want.size(); ++j) {
      same = want[j].rid == got[j].rid;
    }
    if (!same) {
      errors.Add(where + " (" + verb + " " + param + ") answers " +
                 std::to_string(got.size()) + " rids; brute force finds " +
                 std::to_string(want.size()) + " (or others)");
    }
  }
  if (errors.any()) {
    std::fprintf(stderr, "fjb_check: %llu errors\n",
                 static_cast<unsigned long long>(errors.count()));
    return 1;
  }
  std::printf("ok replies=%llu brute_forced=%llu live=%zu\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(brute_forced), live.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.mode == "selfjoin") return CheckBatch(args, /*self=*/true);
  if (args.mode == "rsjoin") return CheckBatch(args, /*self=*/false);
  if (args.mode == "serve") return CheckServe(args);
  std::fprintf(stderr, "usage: fjb_check <selfjoin|rsjoin|serve> [--flags]\n");
  return 2;
}
