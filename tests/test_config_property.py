"""Property test of config admission: a random config either parses, writes
back to JSON that parses to the same config, and survives setup plus one
step of its mode, or parse rejects it with an error that names one of the
drawn fields.  A crash after parsing fails the test."""
import json
import math
import re

from hypothesis import given, settings, strategies as st

from kinmix.config import PRESETS, ConfigError, config_to_json, parse_config
from kinmix.driver import run
from kinmix.model import MixtureParams, ParameterError

# block of each drawn field; a rejection must name one of them (or the mode/preset)
FIELDS = {
    "m1": "mixture", "m2": "mixture", "delta": "mixture", "alpha": "mixture", "gamma": "mixture",
    "eps1": "knudsen", "epst1": "knudsen", "eps2": "knudsen", "epst2": "knudsen",
    "T1": "init", "T2": "init", "beta": "init", "seed": "particles",
}

unit = st.floats(0.0, 1.0)
knudsen = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def config_docs(draw):
    """Admissible configs; in about half of them one drawn field is then
    replaced by a value that may break its bound."""
    mode = draw(st.sampled_from(["general", "reference", "homogeneous"]))
    preset = draw(st.sampled_from(sorted(PRESETS)))
    mix = {"m1": draw(st.floats(0.1, 10.0)), "m2": draw(st.floats(0.1, 10.0))}
    epst1 = draw(knudsen)
    kn = {"eps1": draw(knudsen), "epst1": epst1, "eps2": draw(knudsen), "epst2": epst1 * draw(st.floats(1e-3, 1.0))}
    dmin = MixtureParams(**mix, **kn).delta_min()
    mix["delta"] = dmin + (1.0 - dmin) * draw(unit)
    mix["alpha"] = draw(unit)
    mix["gamma"] = MixtureParams(**mix, **kn).gamma_max() * draw(unit)
    init = {"preset": preset, "beta": draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))}
    if preset == "maxwellian-maxwellian" and draw(st.booleans()):
        init["T1"] = draw(st.floats(0.0, 10.0, exclude_min=True))
    if preset != "cosine-perturbed" and draw(st.booleans()):
        init["T2"] = draw(st.floats(0.0, 10.0, exclude_min=True))
    doc = {
        "mode": mode,
        # CFL-safe for every drawn state: dt is far below dx / max|v| on this grid
        "domain": {"Lx": 4 * math.pi, "Lv": 20.0, "Nx": 1 if mode == "homogeneous" else 4, "Nv": 64},
        "particles": {"Np1": 200, "Np2": 200, "seed": draw(st.integers(0, 2**32))},
        "time": {"dt": 1e-3, "t_end": 1e-3},
        "mixture": mix,
        "knudsen": kn,
        "init": init,
    }
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(FIELDS)))
        bad = st.integers(-5, -1) if name == "seed" else st.floats(-2.0, 2.0) if name == "beta" else st.floats(-2.0, 0.0)
        doc[FIELDS[name]][name] = draw(bad)
    return doc


@settings(max_examples=50, deadline=None)
@given(config_docs())
def test_random_config_parses_and_steps_or_is_rejected_naming_a_field(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except (ConfigError, ParameterError) as e:
        named = [*FIELDS, "mode", "preset"]
        assert any(re.search(rf"\b{name}\b", str(e)) for name in named), str(e)
        return
    assert parse_config(config_to_json(cfg)) == cfg
    result = run(cfg)
    assert len(result.times) == 2
