#!/usr/bin/env python3
"""Map every metric of an old-format bench baseline onto the new format.

The old BENCH_harness.json keyed each entry by experiment name ("fork",
"spmv", ...) with hand-picked metric keys such as "hmmer.cow.cycles" and
integer "*_milli" line-size overheads. The new one keys each entry by its
overlaysim invocation, with the numeric leaves of that invocation's -json
results as metrics ("0.CoW.Cycles"). This script maps each old key to
its new invocation and key, prints the mapping, and exits 1 unless every
old metric has a counterpart with the same value (a new line-size
overhead v matches the old milli value when round(v * 1000) equals it).

Matrix and backend names become result indices, so the script runs the
spmv, linesize, compare and dualcore invocations once with -json to
learn each name's index.

Usage:
    git show <old commit>:BENCH_harness.json > old.json
    go build -o overlaysim ./cmd/overlaysim
    python3 docs/bench_keymap.py old.json BENCH_harness.json ./overlaysim
"""

import json
import os
import subprocess
import sys
import tempfile

FORK = "fork -bench=%s -warm=60000 -measure=150000"
SPMV = "spmv -matrices=6"
LINESIZE = "linesize -matrices=10"
SWEEP = "sweep -points=8 -rows=128"
COMPARE = "compare -bench=hmmer -warm=60000 -measure=150000 -matrices=2"
OMSSTRESS = "omsstress -tenants=4 -ops=8000 -segments=96 -oms-capacity=16"
DUALCORE = "dualcore"


def results(binary, invocation):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        subprocess.run([binary] + invocation.split() + ["-parallel=0", "-json=" + path],
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with open(path) as fh:
            return json.load(fh)["results"]


def index_of(rows, field):
    return {row[field]: i for i, row in enumerate(rows)}


def mapper(binary):
    spmv = index_of(results(binary, SPMV), "Matrix")
    linesize = index_of(results(binary, LINESIZE), "Matrix")
    backends = index_of(results(binary, COMPARE)["backends"], "backend")
    dualcore = index_of(results(binary, DUALCORE), "Mechanism")
    fork_field = {"cycles": "Cycles", "added_bytes": "AddedBytes"}
    spmv_field = {"overlay": "OverlayCycles", "csr": "CSRCycles"}
    sweep_field = {"overlay": "OverlayCycles", "dense": "DenseCycles"}
    dual_field = {"writer.cycles": "WriterCycles", "reader.cycles": "ReaderCycles",
                  "shootdowns": "Shootdowns", "line_updates": "LineUpdates"}

    def milli(v):
        return int(v * 1000 + 0.5)

    def same(v):
        return v

    # Each rule returns (invocation, new key, transform of the new value).
    def fork(key):
        bench, mech, field = key.split(".", 2)
        return FORK % bench, "0.%s.%s" % ({"cow": "CoW", "oow": "OoW"}[mech], fork_field[field]), same

    def spmv_rule(key):
        name, kind, _ = key.rsplit(".", 2)
        return SPMV, "%d.%s" % (spmv[name], spmv_field[kind]), same

    def linesize_rule(key):
        if key.endswith(".csr_milli"):
            return LINESIZE, "%d.CSR" % linesize[key[:-len(".csr_milli")]], milli
        name, size = key.split(".overhead_milli.")
        return LINESIZE, "%d.Overheads.%s" % (linesize[name], size), milli

    def sweep_rule(key):
        point, kind, _ = key.split(".")
        return SWEEP, "%d.%s" % (int(point[len("point"):]), sweep_field[kind]), same

    def compare_rule(key):
        backend, rest = key.split(".", 1)
        return COMPARE, "backends.%d.%s" % (backends[backend], rest), same

    def omsstress_rule(key):
        tenant, field = key.split(".", 1)
        return OMSSTRESS, "%d.%s" % (int(tenant[len("tenant"):]), field), same

    def dualcore_rule(key):
        for suffix, field in dual_field.items():
            if key.endswith("." + suffix):
                return DUALCORE, "%d.%s" % (dualcore[key[:-len(suffix) - 1]], field), same
        raise KeyError(key)

    return {"fork": fork, "spmv": spmv_rule, "linesize": linesize_rule, "sweep": sweep_rule,
            "compare": compare_rule, "omsstress": omsstress_rule, "dualcore": dualcore_rule}


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    old_path, new_path, binary = sys.argv[1:]
    with open(old_path) as fh:
        old = json.load(fh)["results"]["experiments"]
    with open(new_path) as fh:
        new = {e["invocation"]: e["metrics"] for e in json.load(fh)["results"]["experiments"]}
    rules = mapper(binary)
    checked = failed = 0
    for e in old:
        for key, want in sorted(e["metrics"].items()):
            checked += 1
            try:
                invocation, new_key, transform = rules[e["name"]](key)
                got = transform(new[invocation][new_key])
            except KeyError as err:
                print("MISSING %s %s (%s)" % (e["name"], key, err))
                failed += 1
                continue
            status = "ok" if got == want else "DIFF"
            failed += got != want
            print("%-4s %s %s = %s -> [%s] %s = %s" % (status, e["name"], key, want, invocation, new_key,
                                                       new[invocation][new_key]))
    print("%d old metrics, %d without an identical counterpart" % (checked, failed))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
