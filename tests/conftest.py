import numpy as np
import pytest

from mmwsim import PropagationParams, ScenarioConfig, run_scenario

# one fixed seed and the desk-scale drop count for every statistical test
ACCEPT_SEED = 42
ACCEPT_DROPS = 20


@pytest.fixture(scope="session")
def scenario_runner():
    """Memoised scenario runner shared across the whole session.

    ``links=True`` also collects the per-link table; ``oxygen=False`` runs
    with an empty oxygen table.
    """
    cache = {}

    def run(environment, scheme, f_c_ghz, oxygen=True, links=False, **overrides):
        key = (environment, scheme, f_c_ghz, oxygen, links,
               tuple(sorted(overrides.items())))
        if key not in cache:
            if not oxygen:
                overrides = dict(overrides,
                                 propagation=PropagationParams(oxygen_delta_db_per_km={}))
            cfg = ScenarioConfig(
                f_c_ghz=float(f_c_ghz), power_scheme=scheme,
                environment=environment, n_drops=ACCEPT_DROPS,
                seed=ACCEPT_SEED, **overrides)
            cache[key] = run_scenario(cfg, workers=4, collect_links=links)
        return cache[key]

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
