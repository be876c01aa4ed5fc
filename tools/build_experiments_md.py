#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only`` so every reproduction
table exists.  The commentary (paper-vs-measured analysis) is maintained
here; the measured tables are embedded verbatim from the results files so
the document always matches the last benchmark run.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results")
OUTPUT = os.path.join(ROOT, "EXPERIMENTS.md")

#: (result file stem, section header, commentary)
SECTIONS = [
    ("table2_graphs", "Table II — evaluation graph corpus", """
**Paper:** Orkut 3.07M/117M ĉ=0.041 (social), Brain 735k/166M ĉ=0.510
(biological), Web 41M/1.15B ĉ=0.816 (web).

**Measured (scaled analogues):** see table. The corpus is scaled ~3-4
orders of magnitude down but preserves exactly what the paper's analysis
keys on: the clustering-coefficient ordering Orkut < Brain < Web with
Orkut in the "weak" band (<0.1), Brain moderate (~0.4), Web strong (>0.9),
plus right-skewed degree distributions (strongly so for Orkut/Web; the
Brain analogue, like real cortical networks, is flatter but carries a hub
overlay so degree-aware scoring stays meaningful). Average degree is kept
high for Brain (~35) because the spotlight effect (Fig. 8) depends on
vertices having many edges per stream chunk, as they do at 226 average
degree in the real Brain graph.

**Verdict: reproduced** (property bands and ordering; absolute sizes
scaled by design).
"""),
    ("fig1_landscape", "Fig. 1 — partitioning latency vs quality landscape", """
**Paper (qualitative):** hashing strategies sit at minimal latency and
worst quality; Greedy/HDRF improve quality at modest cost; ADWISE spans a
*controllable* region toward high latency / high quality; super-linear
algorithms (Ja-Be-Ja-VC, NE, H-move) anchor the far right.

**Measured:** the orderings all hold — Hash worst quality at lowest
latency; HDRF/Greedy in the middle; the three ADWISE rows form a monotone
latency→quality staircase; NE delivers the best replication degree of all
strategies at all-edge cost, with Ja-Be-Ja-VC improving markedly on its
hash starting point at the highest latency in the table. One scale
artifact: Greedy reaches very low replication by sacrificing balance
entirely (imbalance ≈ 1.0) on locality-rich streams — at paper scale the
balance term constrains it; we report imbalance alongside so the
degenerate trade is visible.

**Verdict: reproduced** (all qualitative positions).
"""),
    ("fig7a_pagerank_brain", "Fig. 7a — PageRank on Brain (stacked total latency)", """
**Paper:** ADWISE reduces total latency by up to 18% vs HDRF and 39% vs
DBH; higher processing run-time makes larger partitioning investments
increasingly worthwhile.

**Measured:** the sweet spot lands at an intermediate latency preference
(~4x the single-edge latency — the paper's §IV guideline recommends ~3x),
beating HDRF by ~9-10% and DBH by ~14-15% on total latency after three
100-iteration blocks. The paper's larger margins come from its much larger
replication deltas at cluster scale (its Brain graph has 226 average
degree vs our ~35); the *shape* — ADWISE wins, intermediate L is optimal,
extreme L overshoots — is exactly Fig. 7a's.

**Verdict: shape reproduced** (winner, sweet-spot position, monotone
quality-vs-L trend; margins compressed by scale).
"""),
    ("fig7b_pagerank_web", "Fig. 7b — PageRank on Web", """
**Paper:** ADWISE cuts total latency 16% vs HDRF, 38% vs DBH; already
beneficial in the first 100-iteration block.

**Measured:** ADWISE wins at every block count with a clear sweet spot;
replication improvement vs HDRF exceeds 10% (paper: 12-25%), vs DBH
more than 25%. The Web stream uses the `local-shuffle` order (coarse
locality, fine-grained disorder) — on a perfectly adjacency-ordered
synthetic community graph HDRF is near-optimal already and the window has
nothing to recover, which is a scale/generator artifact, not a paper
contradiction (real crawl orders are locally disordered).

**Verdict: shape reproduced.**
"""),
    ("fig7c_pagerank_orkut", "Fig. 7c — PageRank on Orkut (clustering score off)", """
**Paper:** improvements shrink on the weakly clustered Orkut: up to 11%
total-latency vs HDRF, 29% vs DBH; replication gain only up to 4%.

**Measured:** same compressed margins — ADWISE's best configuration edges
out HDRF by well under 1% total latency with a ~1-2% replication gain,
and clearly beats DBH. The clustering score is disabled exactly as in the
paper. This is the paper's own observation: with little locality in the
stream, window-based reordering has little to exploit.

**Verdict: shape reproduced** (small-but-positive margins, as the paper
reports for this graph).
"""),
    ("fig7d_subgraph_brain", "Fig. 7d — subgraph isomorphism on Brain (cycles 19/15/21)", """
**Paper:** the communication/computation-heavy SI workload shows the
clearest sweet spot (L=281s): 23% vs HDRF, 37% vs DBH; larger L keeps
reducing processing latency but stops paying off in total.

**Measured:** the cycle searches run for real on the BSP engine (walker
messages with bounded fanout and forwarding probability — the same
message-bounding the paper's clique workload uses); the SI cost-model
preset (4x compute, 6x comm weight vs PageRank) encodes its heavier
per-message work. ADWISE's best configuration beats HDRF and DBH, and the
maximal preference is not the winner.

**Verdict: shape reproduced.**
"""),
    ("fig7e_coloring_web", "Fig. 7e — graph coloring on Web (6 x 50 iterations)", """
**Paper:** after 300 iterations ADWISE (L=800s) cuts total latency 9% vs
HDRF and 47% vs DBH; even a single 50-iteration block slightly favours
ADWISE.

**Measured:** ADWISE wins after 300 iterations against both baselines and
its margin over HDRF grows with block count (asserted in the bench),
mirroring the paper's "the more processing, the more partitioning
investment pays" message.

**Verdict: shape reproduced.**
"""),
    ("fig7f_clique_orkut", "Fig. 7f — clique search on Orkut (sizes 3/4/5, P=0.5)", """
**Paper:** minimum total latency at a modest preference (L=83s), 13%
below HDRF; larger preferences still slightly beat HDRF; very large ones
lose to the growing partitioning share.

**Measured:** the random-walker clique search runs for real (ten seed
vertices, ten repetitions — the paper's setup — with forwarding
probability 0.5). On the weakly clustered Orkut analogue the replication
margin is 1-2% (cf. Fig. 7i), so the total-latency win over HDRF is within
a ±1% band rather than 13%; the qualitative ranking (modest L optimal,
maximal L not the winner, DBH clearly beaten) holds.

**Verdict: shape reproduced with compressed margin** (Orkut's margin is
the paper's smallest too; our scale compresses it further).
"""),
    ("fig7g_replication_brain", "Fig. 7g — replication degree on Brain", """
**Paper:** ADWISE reduces replication degree up to 29% vs HDRF and 46% vs
DBH as partitioning latency grows.

**Measured:** monotone (noisy-monotone asserted) quality improvement with
L; at the largest preference ADWISE sits >8% below HDRF (typically
12-14%) and >12% below DBH (typically ~30%). HDRF < DBH ordering holds
throughout.

**Verdict: shape reproduced** (trend + orderings; magnitudes roughly
half the paper's, consistent with the scale-compressed locality).
"""),
    ("fig7h_replication_web", "Fig. 7h — replication degree on Web", """
**Paper:** 12% below HDRF at a small latency budget, 25% at a large one
(41%/51% vs DBH) — gains grow with the window.

**Measured:** the vs-HDRF gain grows with the budget (asserted) and
reaches >8% (typically ~15-20%); vs DBH ADWISE ends >25% ahead. Same
growth-with-budget signature as the paper.

**Verdict: shape reproduced.**
"""),
    ("fig7i_replication_orkut", "Fig. 7i — replication degree on Orkut", """
**Paper:** replication stays high for every strategy (little locality to
exploit); ADWISE's margin is only up to 4% vs HDRF and 7% vs DBH.

**Measured:** identical signature — all strategies cluster at a high
replication level, ADWISE ahead of HDRF by a few percent and of DBH by a
bit more. A cross-figure assertion verifies the Orkut margin is smaller
than the Brain margin, the paper's clustering-coefficient narrative in
one line.

**Verdict: reproduced.**
"""),
    ("fig8_spotlight", "Fig. 8 — spotlight spread sweep on Brain (z=8, k=32)", """
**Paper:** smaller spreads reduce replication degree by up to 76%, for
all tested strategies; prior systems' maximal spread (32) is the worst
setting.

**Measured:** on the adjacency-ordered Brain stream (file order carries
the locality the spotlight preserves) the staircase reproduces for all
three strategies; DBH improves >40% (typically ~60%) from spread 32 to 4,
HDRF and ADWISE by double-digit percentages. The effect needs realistic
density — with few edges per vertex per chunk there is nothing for a
large spread to spray — which is why the Brain analogue keeps a high
average degree (DESIGN.md §5).

**Verdict: shape reproduced** (monotone staircase for all strategies;
peak reduction ~60% vs the paper's 76% at 226 average degree).
"""),
    ("ablation_scoring", "Ablation — scoring components (beyond the paper's figures)", """
Two switchable components isolated on Brain at L = 8x single-edge:
the clustering score does not hurt (and typically helps) on the clustered
graph, and **λ adaptation is load-bearing**: with HDRF's fixed λ=1.1 under
ADWISE's richer replication+clustering rewards, the balance constraint
collapses entirely on locality-rich adjacency streams (imbalance → 1.0)
while the adaptive λ (which may rise to 5) holds balance below 0.05. This
is the concrete behaviour behind the paper's §III-C argument for adapting
λ at runtime.
"""),
    ("ablation_window", "Ablation — fixed windows vs adaptive policy", """
Larger fixed windows buy quality with latency (the Fig. 7g mechanism in
isolation). The adaptive policy beats every fixed window that costs no
more than it spent — i.e. it finds the trade-off without being told the
right window size, which is its entire job; a from-the-start large fixed
window can edge it out on quality only by spending more.
"""),
    ("ablation_lazy", "Ablation — lazy vs eager window traversal", """
At a fixed window of 32, lazy traversal cuts score computations by >30%
(and with them simulated partitioning latency) at near-identical
replication degree — the paper's §III-B promise ("same decisions, fewer
computations") quantified.
"""),
    ("window_evolution", "Supplementary — adaptive window evolution trace", """
The §III-A mechanism made visible: with a generous latency preference the
controller doubles the window repeatedly (every observed size is a power
of two) up to the configured cap; with an infeasibly tight preference it
pins the window at w=1 — the paper's "L too tight degenerates to
single-edge streaming" boundary case.
"""),
]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the ADWISE paper (ICDCS 2018), regenerated by
`pytest benchmarks/ --benchmark-only`. Absolute numbers are not
comparable to the paper's (8-node Xeon cluster, 117M-1.15B-edge graphs vs
scaled synthetic analogues on a simulated cluster — see DESIGN.md §5 for
every substitution); what is compared is the *shape*: who wins, roughly
by what factor, where crossovers fall. Each bench asserts its shape, so a
reproduction regression fails the suite.

Conventions: `part_ms` is simulated partitioning latency;
`total@Nblk` is partitioning + N processing blocks (stacked bars of
Fig. 7); `repl_degree` is the replication degree (Eq. 1, lower better);
imbalance is `(max−min)/max` (Eq. 2 reports balance as `<0.05` in the
paper — at our scale the hash-family baselines exceed this, see
DESIGN.md §3 note). ADWISE rows are labelled by their latency preference
L, set as multiples of the measured single-edge (HDRF) latency per the
paper's own guideline.

Run environment: pure Python, deterministic SimulatedClock
(1 µs per score computation, 2 µs per assignment), fixed seeds.
"""


def main() -> int:
    missing = []
    parts = [HEADER]
    for stem, title, commentary in SECTIONS:
        path = os.path.join(RESULTS, f"{stem}.txt")
        parts.append(f"\n## {title}\n")
        parts.append(commentary.strip() + "\n")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                table = handle.read().strip()
            parts.append("```\n" + table + "\n```\n")
        else:
            missing.append(stem)
            parts.append("*(results file missing — run the benchmarks)*\n")
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))
    print(f"wrote {OUTPUT}")
    if missing:
        print(f"missing results: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
