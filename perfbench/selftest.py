#!/usr/bin/env python3
"""Self-test of the output checker (fjb_check): it must accept the real
outputs of small joins and serve sessions, and reject each corrupted copy.

    python3 perfbench/selftest.py

Exits 0 only when every clean output passes and every corruption (a dropped
pair, a duplicated pair, an altered similarity, an altered record byte, an
R-S pair dropped, a probe reply missing one rid) is rejected.
"""
import os
import shutil
import subprocess
import sys

from run import Proc, ServeSession, binary, build, build_root

RECORDS, R_RECORDS, S_RECORDS, SEED = 3000, 2000, 1000, 5


def write(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def read(path):
    with open(path) as f:
        return f.read().splitlines()


def main():
    bdir = build(["fuzzyjoin", "fuzzyjoin_serve", "fjb_gen", "fjb_check"])
    work = os.path.join(build_root(), "work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    log = open(os.path.join(work, "log.txt"), "w")
    failures = []

    def run(argv):
        if Proc(argv, stderr=log).rc:
            sys.exit(f"selftest: command failed: {' '.join(argv)}")

    def expect(name, argv, accept):
        rc = Proc(argv, stdout=log, stderr=log).rc
        ok = (rc == 0) == accept
        print(f"{'ok  ' if ok else 'FAIL'} {name}: checker "
              f"{'accepts' if rc == 0 else 'rejects'}")
        if not ok:
            failures.append(name)

    try:
        gen, cli, check = (binary(bdir, n)
                           for n in ("fjb_gen", "fuzzyjoin", "fjb_check"))
        data = os.path.join(work, "d.tsv")
        out = os.path.join(work, "self.tsv")
        run([gen, "dblp", f"--records={RECORDS}", f"--seed={SEED}",
             f"--out={data}"])
        run([cli, "selfjoin", f"--input={data}", f"--out={out}", "--tau=0.8",
             "--threads=2", "--stage3=brj"])
        pairs = read(out)
        assert len(pairs) > 10, "the small self-join found too few pairs"

        def self_check(lines, name, accept):
            path = os.path.join(work, name.replace(" ", "_") + ".tsv")
            write(path, lines)
            expect(name, [check, "selfjoin", f"--input={data}",
                          f"--out={path}", "--tau=0.8", "--sample=0"], accept)

        self_check(pairs, "self-join output", True)
        self_check(pairs[1:], "self-join dropped pair", False)
        self_check(pairs + pairs[:1], "self-join duplicated pair", False)
        f = pairs[0].split("\t")
        f[2] = f"{float(f[2]) - 0.001:.6f}"
        self_check(["\t".join(f)] + pairs[1:], "self-join altered similarity",
                   False)
        f = pairs[0].split("\t")
        f[5] = f[5][:-1] + ("y" if f[5][-1] != "y" else "z")
        self_check(["\t".join(f)] + pairs[1:], "self-join altered record",
                   False)

        r, s = os.path.join(work, "r.tsv"), os.path.join(work, "s.tsv")
        rs_out = os.path.join(work, "rs.tsv")
        run([gen, "rs", f"--r_records={R_RECORDS}", f"--s_records={S_RECORDS}",
             f"--seed={SEED}", f"--r_out={r}", f"--s_out={s}"])
        run([cli, "rsjoin", f"--r={r}", f"--s={s}", f"--out={rs_out}",
             "--tau=0.8", "--threads=2", "--stage3=brj"])
        rs_pairs = read(rs_out)
        assert rs_pairs, "the small R-S join found no pairs"
        for name, lines, accept in (("R-S output", rs_pairs, True),
                                    ("R-S dropped pair", rs_pairs[1:], False)):
            path = os.path.join(work, "rs_check.tsv")
            write(path, lines)
            expect(name, [check, "rsjoin", f"--r={r}", f"--s={s}",
                          f"--out={path}", "--tau=0.8", "--sample=0"], accept)

        # Serve: probes of corpus titles; drop one rid from a reply that has
        # more than one.
        texts = []
        for line in read(data)[:200]:
            _, title, authors, _ = line.split("\t", 3)
            texts.append(f"{title} {authors}")
        requests = [f"probe 0.5 {t}" for t in texts] + \
                   [f"topk 3 {t}" for t in texts[:50]] + \
                   [f"insert 900000 {texts[0]}", f"probe 0.9 {texts[0]}",
                    "remove 900000", "compact", f"probe 0.9 {texts[0]}"]
        session = ServeSession(binary(bdir, "fuzzyjoin_serve"), data, log)
        try:
            replies = [session.ask(q) for q in requests]
            session.close()
        finally:
            session.kill()
        req_path = os.path.join(work, "requests.txt")
        write(req_path, requests)

        def serve_check(lines, name, accept):
            path = os.path.join(work, "replies.txt")
            write(path, lines)
            expect(name, [check, "serve", f"--corpus={data}",
                          f"--requests={req_path}", f"--replies={path}",
                          "--tau_floor=0.5", "--sample=0"], accept)

        serve_check(replies, "serve replies", True)
        victim = next(i for i, r in enumerate(replies)
                      if r.startswith("OK probe") and int(r.split()[2]) > 1)
        words = replies[victim].split()
        words[2] = str(int(words[2]) - 1)
        del words[3]
        corrupted = list(replies)
        corrupted[victim] = " ".join(words)
        serve_check(corrupted, "probe reply missing one rid", False)
    finally:
        log.close()
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        print(f"selftest: {len(failures)} case(s) failed: {failures}")
        return 1
    print("selftest: the checker accepts clean outputs and rejects every "
          "corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
