"""The sunlight source of the tests: source_kind "sunlight" with its
mean photon number jittered by SUNLIGHT_FLUCTUATION unless given."""
from siqrng.source_sim import SUNLIGHT_FLUCTUATION, SourceParams


def sunlight(mean_photons_lambda: float = 11.6, **kw) -> SourceParams:
    kw.setdefault("intensity_fluctuation_rel_std", SUNLIGHT_FLUCTUATION)
    return SourceParams(
        mean_photons_lambda=mean_photons_lambda, source_kind="sunlight", **kw
    )
