import logging
import warnings

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    """One Ray session for the whole pytest run (driver contract:
    library code never calls ray.init itself)."""
    warnings.filterwarnings("ignore")
    logging.getLogger("ray").setLevel(logging.ERROR)
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            log_to_driver=False,
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


SF_SMALL = "/root/testdata/sf0.001"
SF_MED = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def sf_small():
    return SF_SMALL


@pytest.fixture(scope="session")
def sf_med():
    return SF_MED


@pytest.fixture(scope="session")
def duck(sf_small):
    import duckdb

    con = duckdb.connect()
    for t in [
        "region", "nation", "customer", "supplier", "part",
        "orders", "lineitem", "events", "documents", "embeddings",
    ]:
        con.execute(
            f"create view {t} as select * from read_parquet('{sf_small}/{t}.parquet')"
        )
    return con


@pytest.fixture
def force_buckets(monkeypatch):
    """``force_buckets(n)`` makes every auto-sized exchange in the test
    use ``n`` buckets (patches ``exchange.auto_num_buckets``), so a
    test can put several keys in one reducer, or leave buckets empty."""
    from feast_ray.stages import exchange

    def _force(n: int) -> None:
        monkeypatch.setattr(exchange, "auto_num_buckets", lambda *_a, **_k: n)

    return _force


@pytest.fixture
def verify_tier(monkeypatch):
    """``verify_tier(t)`` runs every near-dup verify in the test on tier
    ``t``: ``"driver"``, ``"broadcast"`` or ``"join"`` (patches
    ``neardup.DRIVER_VERIFY_MAX`` and
    ``neardup.BROADCAST_VERIFY_MAX_BYTES``)."""
    from feast_ray.functions import neardup

    driver_max = neardup.DRIVER_VERIFY_MAX
    broadcast_max = neardup.BROADCAST_VERIFY_MAX_BYTES

    def _force(tier: str) -> None:
        assert tier in ("driver", "broadcast", "join"), tier
        monkeypatch.setattr(
            neardup, "DRIVER_VERIFY_MAX", driver_max if tier == "driver" else -1)
        monkeypatch.setattr(
            neardup, "BROADCAST_VERIFY_MAX_BYTES", -1 if tier == "join" else broadcast_max)

    return _force
