"""Golden sha256 digests of raw engine outputs for small fixed configurations.

Rerun-equality tests (`test_deterministic_results`, `c13`) only show that a
run repeats itself; these digests show that a refactor or optimisation leaves
every output bit where it was.  Each case hashes raw float bytes (or the JSON
of `MCResult.to_dict()`, whose floats round-trip exactly), so a one-ulp change
anywhere upstream fails it:

* the physical terminal sample (terminal prices, weights, breach mask) and
  both estimators for three payoffs, on the worked example
  (`section4_scenario(steps=32, seed=5)`) and on `constant_vol_scenario()`,
  with 600 paths in batches of 256, with and without projection; the
  unprojected worked example breaches the floor, so its estimators pin the
  `BreachRateError` message instead;
* `simulate_scenario_paths(..., 3, project=False/True)`, every key;
* the kernel matrix on a 64-step grid at H = 0.3 and H = 0.7;
* `sample_paths` of both fBm samplers (Wood–Chan and Cholesky), which draw
  through `RandomSource` streams rather than pricing's batched draws;
* the JSON of `check_viability_conditions` reports in cone and hyperplane
  mode with 64 and 256 samples per face, on both presets at each ξ probe of
  pricing's scenario check;
* the file names and bytes of a `reproduce-section4` bundle and of a
  `simulate --project` bundle.

The digests were pinned on x86-64 with CPython 3.11.7, numpy 2.4.6 linked to
scipy-openblas (OpenBLAS 0.3.31, DYNAMIC_ARCH) and scipy 1.17.1.  Another
numpy or BLAS build may change the last bits of matrix products and sums; on
such a stack, re-pin only after checking that the program did not change.
"""

import hashlib
import json

import numpy as np
import pytest

from fracvol import (
    Basket,
    BreachRateError,
    Call,
    FbmConfig,
    MCConfig,
    Put,
    TimeGrid,
    build_kernel_matrix,
    check_viability_conditions,
    physical_terminal_sample,
    price_physical_weighted,
    price_riskneutral,
    sample_paths,
    simulate_scenario_paths,
)
from fracvol.cli import main
from fracvol.scenario import constant_vol_scenario, scenario_to_dict, section4_scenario

SCENARIOS = {
    "worked": lambda: section4_scenario(steps=32, seed=5),
    "constant": constant_vol_scenario,
}
PAYOFFS = {
    "call0": Call(0, 1.0),
    "put1": Put(1, 0.9),
    "basket": Basket([0.5, 0.5], 1.0),
}
ESTIMATORS = {"physical": price_physical_weighted, "riskneutral": price_riskneutral}
PROJECTIONS = {"projected": True, "free": False}
SIMULATE_KEYS = ("xi", "w", "b", "state", "vol", "prices", "margin")
# Pricing checks the singular law at its cutoff and half of it, a constant
# law at its value.
CHECKER_PROBES = {"worked": ("1", "0.5"), "constant": ("0.1",)}
CHECKER_MODES = ("cone", "hyperplane")
CHECKER_SAMPLES = ("64", "256")


def _config(project: bool) -> MCConfig:
    return MCConfig(paths=600, batch_size=256, check_conditions=False, project=project)


def _array_digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        sha.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return sha.hexdigest()


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bundle_digest(out) -> str:
    sha = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _estimate_digest(estimator, payoff, scenario, project) -> str:
    try:
        scenario = SCENARIOS[scenario]()
        result = ESTIMATORS[estimator](PAYOFFS[payoff], scenario, _config(project))
    except BreachRateError as exc:
        return _text_digest(f"BreachRateError: {exc}")
    return _text_digest(json.dumps(result.to_dict(), sort_keys=True))


def _digest(case: str, tmp_path) -> str:
    kind, *rest = case.split("/")
    if kind == "terminal":
        scenario, projection = rest
        sample = physical_terminal_sample(
            SCENARIOS[scenario](), _config(PROJECTIONS[projection])
        )
        return _array_digest(*sample)
    if kind in ESTIMATORS:
        scenario, projection, payoff = rest
        return _estimate_digest(kind, payoff, scenario, PROJECTIONS[projection])
    if kind == "simulate":
        scenario, projection = rest
        paths = simulate_scenario_paths(
            SCENARIOS[scenario](), 3, project=PROJECTIONS[projection]
        )
        return _array_digest(*(p[key] for p in paths for key in SIMULATE_KEYS))
    if kind == "kernel":
        hurst = float(rest[0])
        return _array_digest(build_kernel_matrix(TimeGrid(1.0, 64), hurst).entries)
    if kind == "fbm":
        cfg = FbmConfig(0.7, dims=2, seed=13)
        return _array_digest(sample_paths(TimeGrid(1.0, 64), cfg, 4, method=rest[0]))
    if kind == "checker":
        scenario, mode, samples, xi = rest
        scenario, xi = SCENARIOS[scenario](), float(xi)
        report = check_viability_conditions(
            scenario.coefficients, scenario.polyhedron(xi), xi,
            mode=mode, samples_per_face=int(samples),
        )
        return _text_digest(report.to_json())
    if case == "bundle/reproduce-section4":
        out = tmp_path / "section4"
        argv = ["reproduce-section4", "--steps", "64", "--paths", "3", "--seed", "9"]
        assert main(argv + ["--out", str(out)]) == 0
        return _bundle_digest(out)
    if case == "bundle/simulate-project":
        scenario = tmp_path / "worked.json"
        scenario.write_text(json.dumps(scenario_to_dict(SCENARIOS["worked"]())))
        out = tmp_path / "simulate"
        argv = ["simulate", str(scenario), "--paths", "3", "--project"]
        assert main(argv + ["--out", str(out)]) == 0
        return _bundle_digest(out)
    raise KeyError(case)


CASES = (
    [f"terminal/{s}/{p}" for s in SCENARIOS for p in PROJECTIONS]
    + [
        f"{e}/{s}/{p}/{f}"
        for e in ESTIMATORS
        for s in SCENARIOS
        for p in PROJECTIONS
        for f in PAYOFFS
    ]
    + [f"simulate/{s}/{p}" for s in SCENARIOS for p in PROJECTIONS]
    + ["kernel/0.3", "kernel/0.7", "fbm/wood-chan", "fbm/cholesky"]
    + [
        f"checker/{s}/{m}/{n}/{xi}"
        for s in SCENARIOS
        for m in CHECKER_MODES
        for n in CHECKER_SAMPLES
        for xi in CHECKER_PROBES[s]
    ]
    + ["bundle/reproduce-section4", "bundle/simulate-project"]
)

GOLDEN = {
    "terminal/worked/projected": "aff49bf58b2871f62b0f02b058b817641a56abf86d782f365008e1c3c145289e",
    "terminal/worked/free": "c47e2e097588b1d07f8f9fd50a8660cd97c45ece07ab221a7dd698a45f10aea2",
    "terminal/constant/projected": "77907a2f23639cba1a87eb1d1951cd2be2a6c39dae73965f39fec76aa8304310",
    "terminal/constant/free": "77907a2f23639cba1a87eb1d1951cd2be2a6c39dae73965f39fec76aa8304310",
    "physical/worked/projected/call0": "75206f97115be1d511f7575d58d0318187b5dc20f3831b13f4da166c88285099",
    "physical/worked/projected/put1": "bb1d86ba77951603aded124c161edc815524efa1cd31761a5e6175020799abe1",
    "physical/worked/projected/basket": "5a8baefac80da22a286c0a5f6edba64501227bc2f7cb5aa00a78eee1e70d957d",
    "physical/worked/free/call0": "8af817c8506316c3cbd917746fcd8cec03d9969cdddafe2792a604838f37772a",
    "physical/worked/free/put1": "8af817c8506316c3cbd917746fcd8cec03d9969cdddafe2792a604838f37772a",
    "physical/worked/free/basket": "8af817c8506316c3cbd917746fcd8cec03d9969cdddafe2792a604838f37772a",
    "physical/constant/projected/call0": "44e30d0002df0a9296e1be4f68dccbe710f0d6fb6a1ce4ea85308ae041700031",
    "physical/constant/projected/put1": "13ef612f46d9cf0e849798635f0d9059b440daaaeac14d779c226174a626fc9a",
    "physical/constant/projected/basket": "ca2ce942415b745c89b592530d0afa86b672f871665643db89b286d2f6e257c0",
    "physical/constant/free/call0": "44e30d0002df0a9296e1be4f68dccbe710f0d6fb6a1ce4ea85308ae041700031",
    "physical/constant/free/put1": "13ef612f46d9cf0e849798635f0d9059b440daaaeac14d779c226174a626fc9a",
    "physical/constant/free/basket": "ca2ce942415b745c89b592530d0afa86b672f871665643db89b286d2f6e257c0",
    "riskneutral/worked/projected/call0": "059ca0b6edf249144596cb3e4fb95c69629a58e00e74f38b756f28cbe2153e4b",
    "riskneutral/worked/projected/put1": "02a7ba2e396d02a107974b45ea09e18629c508e9dbf75c5cd4582fb6c5146120",
    "riskneutral/worked/projected/basket": "06f86ccbc340000e2a16cf1649d9eb9cb09c78bbe37b2bf11e4ae83cfbc66c50",
    "riskneutral/worked/free/call0": "2f376cebf78689f617cfa4b4dc918bed0d01c588d4a34e8fcc6e229a22f83bd1",
    "riskneutral/worked/free/put1": "2f376cebf78689f617cfa4b4dc918bed0d01c588d4a34e8fcc6e229a22f83bd1",
    "riskneutral/worked/free/basket": "2f376cebf78689f617cfa4b4dc918bed0d01c588d4a34e8fcc6e229a22f83bd1",
    "riskneutral/constant/projected/call0": "40be9fca92e1bb5a691a23d851027839b9e4cf16b999d9adcf850dfec5df126a",
    "riskneutral/constant/projected/put1": "8a8f637ed47e59f8eff326a16064f2fe513885b13a5c7c2ff0d27227661a748f",
    "riskneutral/constant/projected/basket": "c67caf5c351fb136ba905b9f5e5f69554c48cb137319f7de9135fe75e4097fa9",
    "riskneutral/constant/free/call0": "40be9fca92e1bb5a691a23d851027839b9e4cf16b999d9adcf850dfec5df126a",
    "riskneutral/constant/free/put1": "8a8f637ed47e59f8eff326a16064f2fe513885b13a5c7c2ff0d27227661a748f",
    "riskneutral/constant/free/basket": "c67caf5c351fb136ba905b9f5e5f69554c48cb137319f7de9135fe75e4097fa9",
    "simulate/worked/projected": "3fbffd35214461f726016690c03d968acddcbb7b0689216a3682c8ed19dbd332",
    "simulate/worked/free": "27792009aefb57da512428434101ae8f4651048568d887e77d284ea95f49354f",
    "simulate/constant/projected": "8a7a273e16e294d6e910d99298fe4e8a842e498cb522e77d55cca44b35b86546",
    "simulate/constant/free": "8a7a273e16e294d6e910d99298fe4e8a842e498cb522e77d55cca44b35b86546",
    "kernel/0.3": "418fcfed154e8ec3757eeb33c3e87d02b3af7ef86a997abb042ca778eedf6d1c",
    "kernel/0.7": "7d9d4e117673dead4754b24be6b5ab9f9d56e862344c7912dbd7cd9a420cfae0",
    "fbm/wood-chan": "d78f82c87c810d5f63ab402d0cd163cb4aae9b403fd1b51cd3e4096226579a4d",
    "fbm/cholesky": "14acf0add04197694fe9a8051b076b31d9df3f2f7d46edb43b774942f7bafe02",
    "checker/worked/cone/64/1": "2e10b47b0088735d0e1a9df215e70e6a3581f8a606ff57580314196702b3b279",
    "checker/worked/cone/64/0.5": "2618627412c6f3a8f43728a357d0b66fadf008ee2750071351cd1e1ee91a0947",
    "checker/worked/cone/256/1": "4e528cef0f46396adbacc737ab8043af8fecedce902b6a09c3a997b9734fbb54",
    "checker/worked/cone/256/0.5": "d66cefc35781a6936e47328e32b380dc95ffa3450c32d26dd5f6a3a044dfceb0",
    "checker/worked/hyperplane/64/1": "5020de03867715cced257b28090450500b5b250acc90f9368c113d660737baa3",
    "checker/worked/hyperplane/64/0.5": "dd5d60d067a0d353d27616bb982f28e19a812df0120f202da792ccca76eb0378",
    "checker/worked/hyperplane/256/1": "99d063131c063c983b7c128ed582ac784f851bf80bae51e7a948cc9a2176bf52",
    "checker/worked/hyperplane/256/0.5": "3324b636d176d2c64ba02befeae33ae2366cfe0120c336775f5f971c3b48c560",
    "checker/constant/cone/64/0.1": "710e9532809a017dec876268a9cbb6c798bff1ac33f6947aa7880818528ce5f9",
    "checker/constant/cone/256/0.1": "d3af0e7aff75910f289dd1400bc1df88b0112026876eae3ed960d7718e41ec0f",
    "checker/constant/hyperplane/64/0.1": "a3407bfe673bc49c4169c63e5715cb5d65194ca5914504fd9099c9c96f06603e",
    "checker/constant/hyperplane/256/0.1": "37a0983204e2c356793dc573e202c963b1c5f1c325743a58dad93b683c4b0397",
    "bundle/reproduce-section4": "32a98a632e520be726d0740440989453fe812bbd724fab6b1041b40658810f20",
    "bundle/simulate-project": "5ae1db61df7a5ae114b55b2df8f7b04f29b350c61410141cdd87eebd26a938a4",
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(case, tmp_path):
    assert _digest(case, tmp_path) == GOLDEN[case]


def test_unprojected_worked_example_breaches():
    with pytest.raises(BreachRateError, match="breached the volatility floor"):
        price_physical_weighted(PAYOFFS["call0"], SCENARIOS["worked"](), _config(False))
