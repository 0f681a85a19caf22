// fjb_gen — seeded benchmark inputs from the repository's own generators.
//
//   fjb_gen dblp --records=N --seed=S --out=FILE
//       N DBLP-like records (data::DblpLikeConfig).
//   fjb_gen rs --r_records=N --s_records=M --seed=S --r_out=FILE --s_out=FILE
//       R = N DBLP-like records (seed S), S = M CITESEERX-like records
//       (seed S+1) with 30% of them carrying a lightly mutated copy
//       of a random R record's title+authors (data::InjectOverlap, seed
//       S+2) — the same make-up as bench/bench_util.cc:PrepareRSData.
//
// The same arguments always produce byte-identical files.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/generator.h"
#include "data/record.h"

namespace {

// Share of S records that carry a copy of an R record, as in
// bench/bench_util.cc:PrepareRSData.
constexpr double kOverlap = 0.30;

bool WriteRecords(const std::string& path,
                  const std::vector<fj::data::Record>& records) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "fjb_gen: cannot open %s\n", path.c_str());
    return false;
  }
  for (const auto& record : records) {
    const std::string line = record.ToLine();
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
  }
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  fj::Flags flags(argc, argv);
  const std::string mode =
      flags.positional().empty() ? "" : flags.positional()[0];
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (mode == "dblp") {
    const auto n = static_cast<uint64_t>(flags.GetInt("records", 0));
    const std::string out = flags.GetString("out", "");
    if (n == 0 || out.empty()) {
      std::fprintf(stderr, "fjb_gen dblp: --records=N --out=FILE\n");
      return 2;
    }
    return WriteRecords(
               out, fj::data::GenerateRecords(fj::data::DblpLikeConfig(n, seed)))
               ? 0
               : 1;
  }
  if (mode == "rs") {
    const auto nr = static_cast<uint64_t>(flags.GetInt("r_records", 0));
    const auto ns = static_cast<uint64_t>(flags.GetInt("s_records", 0));
    const std::string r_out = flags.GetString("r_out", "");
    const std::string s_out = flags.GetString("s_out", "");
    if (nr == 0 || ns == 0 || r_out.empty() || s_out.empty()) {
      std::fprintf(stderr,
                   "fjb_gen rs: --r_records=N --s_records=M --r_out=FILE "
                   "--s_out=FILE\n");
      return 2;
    }
    auto r = fj::data::GenerateRecords(fj::data::DblpLikeConfig(nr, seed));
    auto s = fj::data::GenerateRecords(
        fj::data::CiteseerxLikeConfig(ns, seed + 1));
    fj::data::InjectOverlap(r, kOverlap, /*max_edits=*/1, seed + 2, &s);
    return WriteRecords(r_out, r) && WriteRecords(s_out, s) ? 0 : 1;
  }
  std::fprintf(stderr, "usage: fjb_gen <dblp|rs> [--flags]\n");
  return 2;
}
