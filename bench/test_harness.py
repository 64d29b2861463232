"""Tests of the benchmark harness on workloads that fail on purpose."""

import harness


class _Workload:
    """Two operations and one check a round; ``fail`` says where it breaks."""

    name = "fake"
    ops_per_round = 2

    def __init__(self, fail=None):
        self.fail = fail
        self.rounds = 0

    def setup(self, seed, workdir):
        return {}

    def round(self, ctx, rec):
        self.rounds += 1
        with rec.op("fit_obs_per_s", 10):
            pass
        if self.fail == "round" and self.rounds >= 2:
            raise RuntimeError("the second round breaks")
        with rec.op("eval_obs_per_s", 10):
            pass
        return {"value": 1.0, "epoch_ms": [1.0]}

    def fingerprint(self, out):
        return out["value"]

    def checks(self, ctx, out):
        ctx["fit_rmse_vs_truth"] = 0.5
        if self.fail == "check raises":
            raise KeyError("missing")
        yield "value is one", out["value"] == 1.0 and self.fail != "check", "fake"


def _run(tmp_path, fail):
    return harness.end_to_end(_Workload(fail), 1, 0.05, lambda: 0.0, str(tmp_path))


def test_passing_run_reports_every_metric(tmp_path):
    correct, rec, metrics = _run(tmp_path, None)
    assert correct
    assert rec.failed == 0
    assert set(metrics) == set(harness.UNITS)
    assert metrics["halo_entries_per_s"]["value"] is None  # the fake has no halo
    assert metrics["fit_rmse_vs_truth"]["value"] == 0.5


def test_failed_operation_counts_the_rest_of_its_round(tmp_path):
    correct, rec, metrics = _run(tmp_path, "round")
    assert not correct
    # Round one: 2 operations.  Round two: 1 completed, 1 counted as failed.
    # Then 2 checks: the oracle's, and round completion (failed).
    assert (rec.attempted, rec.failed) == (6, 2)
    assert metrics["fit_obs_per_s"]["value"] > 0


def test_failed_check_makes_the_run_incorrect(tmp_path):
    correct, rec, _ = _run(tmp_path, "check")
    assert not correct
    assert rec.failed == 1


def test_check_that_raises_counts_as_failed(tmp_path):
    correct, rec, metrics = _run(tmp_path, "check raises")
    assert not correct
    assert rec.failed == 1
    assert metrics["fit_rmse_vs_truth"]["value"] == 0.5


def test_failing_first_round_still_reports(tmp_path):
    workload = _Workload("round")
    workload.rounds = 1  # the first round is already the failing one
    correct, rec, metrics = harness.end_to_end(workload, 1, 0.05, lambda: 0.0, str(tmp_path))
    assert not correct
    assert (rec.attempted, rec.failed) == (3, 2)
    assert metrics["eval_obs_per_s"]["value"] is None
    assert metrics["fit_rmse_vs_truth"]["value"] is None


def test_traced_run_with_failing_rounds_reports(tmp_path):
    workload = _Workload("round")
    workload.rounds = 1
    correct, rec, metrics = harness.per_layer(workload, 1, 0.05, str(tmp_path))
    assert not correct
    assert rec.failed >= 1
    assert set(metrics) == set(harness.LAYER_UNITS)


def test_samples_are_scaled_to_the_reference_kernel_speed(monkeypatch):
    # A machine at half the reference speed: the kernel takes twice as long.
    monkeypatch.setattr(harness, "kernel_seconds", lambda: 2 * harness.REFERENCE_KERNEL_S)
    rec = harness.Recorder()
    rec.add("fit_obs_per_s", 10, 4.0, 2 * harness.REFERENCE_KERNEL_S)
    assert rec.raw["fit_obs_per_s"] == [(10, 4.0)]
    assert rec.samples["fit_obs_per_s"] == [(10, 2.0)]
    assert rec.rate("fit_obs_per_s") == 5.0
