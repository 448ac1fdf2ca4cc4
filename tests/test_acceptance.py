import pytest

from twofluid import acceptance

# the criteria that finish within seconds; [4], [5], [7], [9] and [10] run
# for minutes and are left to a full acceptance run
FAST = (1, 2, 3, 6, 8)


@pytest.mark.parametrize("number", FAST)
def test_fast_criterion_passes(number):
    (res,) = acceptance.run(numbers=(number,), stream=None)
    assert res.number == number
    assert res.ok, res.line()


def test_partition_detail_reports_counts(monkeypatch):
    # criterion [7] at a coarse grid: only the shape of its detail line is
    # checked here, not whether the coarse census passes
    full = acceptance.verify_case_partition

    def coarse(p, **kw):
        kw.update(resolution=(48, 32, 16), refine=False)
        return full(p, **kw)

    monkeypatch.setattr(acceptance, "verify_case_partition", coarse)
    (res,) = acceptance.run(numbers=(7,), stream=None)
    assert "phases with hits" in res.detail
    assert "home triples" in res.detail
    assert "elliptic hits" in res.detail
    assert "{" not in res.detail and "raised" not in res.detail
