import numpy as np
import pytest
from hypothesis import settings

from dsc_codec import ScenarioConfig, fit_codec

# The default settings, plus the @reproduce_failure blob of any failing example,
# so a fuzz failure in a CI log can be replayed exactly.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


@pytest.fixture(scope="session")
def small_cfg() -> ScenarioConfig:
    return ScenarioConfig(
        num_agents=2,
        channels=8,
        height=32,
        width=32,
        rho=0.9,
        sigma_obs=0.0,
        visibility_overlap=1.0,
        alpha=0.8,
        seed=7,
    )


@pytest.fixture(scope="session")
def small_fitted(small_cfg):
    return fit_codec(small_cfg, codebook_size=16, embed_dim=8, train_scenes=2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
