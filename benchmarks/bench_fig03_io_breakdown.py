"""Figure 3 — read/compute/write share of a 4-table join CTAS.

Paper claim: writing the joined result to storage takes 37-69 % of each
statement's runtime — I/O, not compute, dominates materialization. Here
the same statement (the TPC-H Q8 join) runs on the real MiniDB with real
compressed disk I/O.

Measured here (2 vCPUs, one run per commit, indicative): the write is
73-76 % of the statement at 0.01 / 0.02 / 0.05 GB (totals 0.15 / 0.33-0.40
/ 0.89-0.97 s).  Before the encoder stopped deflating the float measures
that do not deflate and sorting the dense keys it can count (ISSUE 22) it
was 80 / 80 / 83-84 % of 0.32-0.39 / 0.62-0.79 / 2.1-2.5 s — nearer the
paper's band now, still above it, because Q8's four FK -> PK joins are
nearly free on this engine.  Whether the band is a gate or a historical
note is ROADMAP 3(d), still open; the assertions below are the
qualitative claim only.
"""

from repro.bench import experiments


def test_fig3_io_breakdown(benchmark, show):
    result = benchmark.pedantic(
        experiments.fig3_io_breakdown,
        kwargs={"scales_gb": (0.01, 0.02, 0.05)},
        rounds=1, iterations=1)
    show(result)
    for scale, timing in result.data["timings"].items():
        total = timing.total_seconds
        write_share = timing.write_seconds / total
        io_share = (timing.read_seconds + timing.write_seconds) / total
        # write is a major cost, and I/O in total dominates compute-only
        assert write_share > 0.2, (scale, write_share)
        assert io_share > 0.35, (scale, io_share)
