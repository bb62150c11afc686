#!/usr/bin/env python3
"""Splice the rendered results/*.txt tables into EXPERIMENTS.md at the
<!-- MEASURED:name --> markers (idempotent). The `e11` block is not a
rendered file: it is computed here from the JSON of results/reference/
(the frozen serial-reference run) and of results/ (the shipped kernels)."""
import json, re, sys, pathlib

root = pathlib.Path(__file__).parent.parent
results = root / "results"
mapping = {
    "exec_time": "exec_time.txt",
    "fig4": "fig4_topdown.txt",
    "fig5": "fig5_loads_stores.txt",
    "table2": "table2_mpki.txt",
    "table3": "table3_bandwidth.txt",
    "table4": "table4_functions.txt",
    "fig6": "fig6_strong_scaling.txt",
    "fig7": "fig7_weak_scaling.txt",
    "table5": "table5_opcode_mix.txt",
    "table6": "table6_parallelism.txt",
    "plonk": "backends.txt",
    "setup_split": "setup_split.txt",
}
STAGES = ["Compile", "Setup", "Witness", "Proving", "Verifying"]


def table(header, rows):
    """Left-aligned columns under a dashed rule, like the results/*.txt files."""
    rows = [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    line = lambda r: "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
    return "\n".join([line(header), "-" * len(line(header))] + [line(r) for r in rows])


def e11_body():
    """Reference vs shipped, per stage: shares, top-down, memory, hot
    functions, serial fractions. Every number is a field of one of the
    two JSON sets, rounded."""
    def both(name):
        return [json.loads((d / f"{name}.json").read_text()) for d in (results / "reference", results)]

    def pick(rows, **want):
        return [r for r in rows if all(r[k] == v for k, v in want.items())]

    out = []
    ref, new = both("exec_time")
    rows = []
    for s in STAGES:
        (a,), (b,) = pick(ref, stage=s), pick(new, stage=s)
        rows.append([s.lower(), f"{a['seconds']:.4f}", f"{a['percent']:.1f}", f"{b['seconds']:.4f}",
                     f"{b['percent']:.1f}", f"{b['percent'] - a['percent']:+.1f}"])
    out.append("(a) stage shares: simulated seconds summed over the sweep (exec_time)\n"
               + table(["stage", "reference s", "ref %", "shipped s", "shipped %", "shift (points)"], rows))

    ref, new = both("fig4_topdown")
    parts = ["frontend_bound", "bad_speculation", "backend_bound", "retiring"]
    rows = []
    for cpu in ["i7-8650U", "i9-13900K"]:
        for s in STAGES[1:]:
            (a,), (b,) = (pick(x, cpu=cpu, curve="Bn128", stage=s, constraints=8192) for x in (ref, new))
            rows.append([cpu, s.lower()] + [f"{a['breakdown'][p]:.1f} -> {b['breakdown'][p]:.1f}" for p in parts])
    out.append("(b) top-down slots, BN, 2^13, reference -> shipped (fig4_topdown)\n"
               + table(["cpu", "stage", "frontend%", "badspec%", "backend%", "retiring%"], rows))

    (mref, mnew), (bref, bnew) = both("table2_mpki"), both("table3_bandwidth")
    rows = []
    for s in STAGES:
        for curve, label in [("Bn128", "BN"), ("Bls12_381", "BLS")]:
            (a,), (b,) = (pick(x, stage=s, cpu="i9-13900K", curve=curve) for x in (mref, mnew))
            (c,), (d,) = (pick(x, stage=s, curve=curve) for x in (bref, bnew))
            rows.append([s.lower(), label, f"{a['max_mpki']:.2f} -> {b['max_mpki']:.2f}",
                         f"{c['peak_gbps']:.2f} -> {d['peak_gbps']:.2f}"])
    out.append("(c) max LLC load MPKI (i9) and peak bandwidth, reference -> shipped (table2_mpki, table3_bandwidth)\n"
               + table(["stage", "curve", "max MPKI", "peak GB/s"], rows))

    ref, new = both("table4_functions")
    rows = []
    for s in STAGES:
        a = {r["function"]: r for r in pick(ref, stage=s)}
        b = {r["function"]: r for r in pick(new, stage=s)}
        fmt = lambda names, src: ", ".join(f"{n} ({src[n]['uops_percent']:.1f} %)" for n in names) or "-"
        rows.append([s.lower(), fmt([n for n in b if n not in a], b), fmt([n for n in a if n not in b], a)])
    out.append("(d) Table IV top six by uop share: rows that enter and leave (table4_functions)\n"
               + table(["stage", "enters (shipped share)", "leaves (reference share)"], rows))
    rows = []
    for s in STAGES:
        a = {r["function"]: r for r in pick(ref, stage=s)}
        for r in pick(new, stage=s):
            if r["function"] in a and abs(r["uops_percent"] - a[r["function"]]["uops_percent"]) >= 1.0:
                old = a[r["function"]]
                rows.append([s.lower(), r["function"], f"{old['uops_percent']:.1f} -> {r['uops_percent']:.1f}",
                             f"{old['calls']} -> {r['calls']}"])
    out.append("    rows that stay and move by a point or more\n"
               + table(["stage", "function", "% of uops", "calls"], rows))

    ref, new = both("table6_parallelism")
    rows = []
    for curve, label in [("Bn128", "BN"), ("Bls12_381", "BLS")]:
        for s in STAGES:
            (a,), (b,) = (pick(x, stage=s, curve=curve) for x in (ref, new))
            rows.append([s.lower(), label,
                         f"{a['strong']['serial_pct']:.2f} -> {b['strong']['serial_pct']:.2f}",
                         f"{a['weak']['serial_pct']:.2f} -> {b['weak']['serial_pct']:.2f}"])
    out.append("(e) Table VI serial fractions, Groth16, reference -> shipped (table6_parallelism)\n"
               + table(["stage", "curve", "SS serial%", "WS serial%"], rows))
    return "\n\n".join(out)


def splice(text, key, body):
    block = f"<!-- MEASURED:{key} -->\n```text\n{body}\n```\n<!-- /MEASURED:{key} -->"
    pattern = re.compile(
        rf"<!-- MEASURED:{key} -->(?:.*?<!-- /MEASURED:{key} -->)?",
        re.S,
    )
    # A callable replacement: table text is not a regex template.
    text, n = pattern.subn(lambda _: block, text)
    assert n == 1, key
    return text


text = (root / "EXPERIMENTS.md").read_text()
for key, fname in mapping.items():
    path = results / fname
    if not path.exists():
        print(f"missing {fname}, skipping", file=sys.stderr)
        continue
    body = path.read_text().rstrip()
    # Truncate very long outputs for the document; full data stays in results/.
    lines = body.splitlines()
    if len(lines) > 40:
        body = "\n".join(lines[:40]) + f"\n... ({len(lines)-40} more rows in results/{fname})"
    text = splice(text, key, body)
text = splice(text, "e11", e11_body())
(root / "EXPERIMENTS.md").write_text(text)
print("EXPERIMENTS.md updated")
