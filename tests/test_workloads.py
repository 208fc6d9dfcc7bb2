"""Tests for workload construction: the five Table III workloads, the
TPC-DS/TPC-H generators, and the synthetic workload generator."""

import pytest

from repro.errors import ValidationError, WorkloadError
from repro.metadata.costmodel import DeviceProfile, POLARS_PROFILE
from repro.workloads.calibrate import (
    baseline_io_time,
    calibrate_compute_times,
    measured_io_share,
)
from repro.workloads.five_workloads import (
    AGG_GROWTH_EXPONENT,
    WORKLOAD_NAMES,
    WORKLOAD_SUMMARY,
    build_five_workloads,
    build_workload,
)
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
    generate_workload,
)
from repro.workloads.sizes import (
    TPCDS_100GB_TABLE_SIZES_GB,
    scaled_table_sizes,
)


class TestCalibration:
    def test_io_share_pinned(self, diamond_graph):
        cost = DeviceProfile()
        calibrate_compute_times(diamond_graph, cost, 0.4)
        assert measured_io_share(diamond_graph, cost) == pytest.approx(
            0.4, rel=1e-6)

    def test_invalid_share(self, diamond_graph):
        with pytest.raises(ValidationError):
            calibrate_compute_times(diamond_graph, DeviceProfile(), 0.0)
        with pytest.raises(ValidationError):
            calibrate_compute_times(diamond_graph, DeviceProfile(), 1.0)

    def test_io_time_positive(self, diamond_graph):
        assert baseline_io_time(diamond_graph, DeviceProfile()) > 0


class TestSizesCensus:
    def test_fact_tables_dominate(self):
        sizes = TPCDS_100GB_TABLE_SIZES_GB
        facts = sizes["store_sales"] + sizes["catalog_sales"] + \
            sizes["web_sales"]
        assert facts > 0.6 * sum(sizes.values())

    def test_scaling(self):
        scaled = scaled_table_sizes(10.0)
        assert sum(scaled.values()) == pytest.approx(10.0)


class TestFiveWorkloads:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_node_counts_match_table3(self, name):
        graph = build_workload(name, scale_gb=100.0)
        assert graph.n == WORKLOAD_SUMMARY[name][1]
        graph.validate()

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_io_ratio_matches_table3(self, name):
        graph = build_workload(name, scale_gb=100.0)
        target = WORKLOAD_SUMMARY[name][2]
        assert measured_io_share(graph, POLARS_PROFILE) == pytest.approx(
            target, rel=1e-6)

    def test_partitioned_intermediates_smaller(self):
        for name in ("io1", "io2", "io3"):
            regular = build_workload(name, scale_gb=100.0)
            partitioned = build_workload(name, scale_gb=100.0,
                                         partitioned=True)
            assert partitioned.total_size() < 0.6 * regular.total_size()

    def test_sizes_scale_near_linearly(self):
        # Filter/join outputs scale linearly with the dataset; aggregates
        # grow sublinearly (group-by cardinality saturates), so every node
        # lands between the pure-AGG and pure-linear growth rates.
        small = build_workload("io1", scale_gb=10.0)
        large = build_workload("io1", scale_gb=100.0)
        # stacked aggregates compound the damping, so the loosest bound
        # is three AGG hops deep
        sublinear = 10.0 ** (1.0 - 3.0 * (1.0 - AGG_GROWTH_EXPONENT))
        for node in small.nodes():
            ratio = large.size_of(node) / small.size_of(node)
            assert sublinear - 1e-6 <= ratio <= 10.0 + 1e-6

    def test_agg_nodes_scale_sublinearly(self):
        small = build_workload("io1", scale_gb=10.0)
        large = build_workload("io1", scale_gb=100.0)
        agg_nodes = [v for v in small.nodes()
                     if small.node(v).op == "AGG"]
        assert agg_nodes
        for node in agg_nodes:
            ratio = large.size_of(node) / small.size_of(node)
            assert ratio < 10.0 - 1e-6

    def test_scores_positive(self):
        for graph in build_five_workloads(scale_gb=100.0).values():
            assert all(graph.score_of(v) > 0 for v in graph.nodes())

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            build_workload("io99")


class TestGeneratedWorkloads:
    def test_respects_dag_size(self):
        for n in (10, 25, 50):
            graph = generate_workload(GeneratedWorkloadConfig(n_nodes=n),
                                      seed=1)
            assert graph.n == n
            graph.validate()

    def test_sources_are_scans_with_base_inputs(self):
        graph = generate_workload(GeneratedWorkloadConfig(n_nodes=40),
                                  seed=2)
        for node_id in graph.sources():
            node = graph.node(node_id)
            assert node.op == "SCAN"
            assert node.meta["base_input_gb"] > 0

    def test_interior_nodes_are_not_scans(self):
        graph = generate_workload(GeneratedWorkloadConfig(n_nodes=40),
                                  seed=3)
        for node_id in graph.nodes():
            if graph.in_degree(node_id) > 0:
                assert graph.node(node_id).op != "SCAN"

    def test_deterministic_per_seed(self):
        generator = WorkloadGenerator()
        a = generator.generate(GeneratedWorkloadConfig(n_nodes=30), seed=5)
        b = generator.generate(GeneratedWorkloadConfig(n_nodes=30), seed=5)
        assert a.sizes() == b.sizes()
        assert a.edges() == b.edges()

    def test_io_share_calibrated(self):
        config = GeneratedWorkloadConfig(n_nodes=30, io_time_share=0.5)
        graph = generate_workload(config, seed=7)
        assert measured_io_share(graph, DeviceProfile()) == pytest.approx(
            0.5, rel=1e-6)

    def test_all_nodes_annotated(self):
        graph = generate_workload(seed=8)
        for node_id in graph.nodes():
            node = graph.node(node_id)
            assert node.size > 0
            assert node.compute_time is not None
            assert node.op is not None


class TestTpcdsGenerator:
    def test_tables_and_proportions(self):
        from repro.workloads.tpcds import (
            generate_tpcds_tables,
            tpcds_schemas,
        )

        tables = generate_tpcds_tables(scale_gb=0.01, seed=0)
        schemas = tpcds_schemas()
        for name, schema in schemas.items():
            assert name in tables
            schema.validate_table(tables[name])
        assert len(tables["store_sales"]) > len(tables["catalog_sales"])
        assert len(tables["catalog_sales"]) > len(tables["web_sales"])
        assert len(tables["item"]) == 2000

    def test_scale_validation(self):
        from repro.workloads.tpcds import generate_tpcds_tables

        with pytest.raises(ValidationError):
            generate_tpcds_tables(scale_gb=0.0)


class TestTpchGenerator:
    def test_q8_join_runs(self, tmp_path):
        from repro.db.engine import MiniDB
        from repro.workloads.tpch import TPCH_Q8_JOIN_SQL, load_tpch

        db = MiniDB(str(tmp_path))
        load_tpch(db, scale_gb=0.002, seed=1)
        result, timing = db.query(TPCH_Q8_JOIN_SQL)
        assert len(result) > 0
        assert "n_regionkey" in result
        assert timing.read_seconds > 0

    def test_lineitem_dominates(self):
        from repro.workloads.tpch import generate_tpch_tables

        tables = generate_tpch_tables(scale_gb=0.005, seed=0)
        assert tables["lineitem"].nbytes > tables["orders"].nbytes
        assert tables["orders"].nbytes > tables["customer"].nbytes
        assert len(tables["nation"]) == 25
