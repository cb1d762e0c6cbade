"""Record the reference digests the benchmark checks results against.

    python3 perfbench/record.py

Writes `perfbench/expected.json`: the digest of the ordered solution list
of every grid the grid-search workload can draw, and of the document
`superybe hierarchy` emits for every (tensor, word) pair of the hierarchy
workload.  The recorded values are the reference: record them again only
on purpose, at a commit whose results are trusted, never to make a
failing run pass.
"""

from __future__ import annotations

import json

from run import HERE, load_library, pin_environment


def main():
    pin_environment()
    load_library()
    import superybe as sy
    import workloads as w

    reps, _ = w.catalog_reps()
    grid = {}
    for rep, parity, entries in w.grid_universe():
        g, rho = reps[rep]
        grid[w.grid_key(rep, parity, entries)] = w.solutions_digest(sy.grid_search_oops(g, rho, parity, entries))

    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    path = workdir / "ex4.4.txt"
    path.write_text(sy.fileformat.emit(sy.fixture_document("ex4.4")), encoding="utf-8")
    hierarchy = {}
    for tensor in ("r0", "r1"):
        for word in w.SHORT_WORDS + w.LONG_WORDS:
            code, stdout = w.run_cli(w.hierarchy_argv(path, tensor, word))
            if code != 0:
                raise SystemExit(f"error: hierarchy {tensor} {word} exited {code}")
            hierarchy[w.hierarchy_key(tensor, word)] = w.digest(json.loads(stdout)["document"])

    out = {"grid": grid, "hierarchy": hierarchy}
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(grid)} grid and {len(hierarchy)} hierarchy digests")


if __name__ == "__main__":
    main()
