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
* the physical terminal sample and `price_both` for three payoffs on the
  one-asset and three-asset constant-volatility presets, whose 16-step sums
  over one asset numpy adds pairwise and over three assets one step after
  another (600 paths in batches of 256, projected);
* `simulate_scenario_paths(..., 3, project=False/True)`, every key;
* the kernel matrix on a 64-step grid at H = 0.3 and H = 0.7, and at the
  sizes the workloads build: 1024 steps at H = 0.7 (522 753 interior cells,
  the largest kernel any workload builds) and 256 steps at H = 0.55 and
  H = 0.85;
* `sample_paths` of both fBm samplers (Wood–Chan and Cholesky), which draw
  their (path, component) streams in keyed batches;
* a batch of one through each engine stage: the Euler states of the worked
  example on one Wood–Chan driver, with and without projection onto K(ξ);
  the kernel transform of an H = 1/2 path through the H = 0.7 kernel; the
  `convergence_probe(levels=4)` list; and singular-law mixing draws.  These
  were pinned on the single-path API that the batched calls replaced;
* `batch_uniforms` of keyed streams at the shapes the workloads draw: 2048
  streams of 16 (a `c09` batch), 256 of 1 (a `c10` mixing draw), 512 of 256
  (a `c10` batch) and 3 of 5;
* the JSON of `check_viability_conditions` reports in cone and hyperplane
  mode with 64 and 256 samples per face, on both presets at each ξ probe of
  pricing's scenario check (the checker scores vertices only and ignores
  `samples_per_face`, so both sample counts pin one digest);
* the file names and bytes of a `reproduce-section4` bundle, of a
  `simulate --project` bundle and of an `fbm` bundle under each sampler.

The digests were pinned on x86-64 with CPython 3.11.7, numpy 2.4.6 linked to
scipy-openblas (OpenBLAS 0.3.31, DYNAMIC_ARCH) and scipy 1.17.1.  OpenBLAS
picks its kernels for the CPU it loads on, and they round matrix products
differently, so there is one table per kernel an x86-64 CPU can run: SkylakeX
(AVX-512), Haswell (AVX2) and Prescott (SSE3).  A process checks the table of
the kernel numpy's OpenBLAS picked; `OPENBLAS_CORETYPE=Haswell` (set before
the process starts) forces another, and
`test_golden_module_under_every_kernel_this_cpu_runs` reruns this module under
each pinned kernel the CPU supports, so a "bit for bit" change must hold on
all of them.  A CPU whose own kernel has no table fails
`test_this_kernel_has_a_table`, naming the core.  What the tables do not
cover: numpy's own SIMD dispatch (its AVX-512 `exp` and `log` loops, chosen
from the CPU and not from OpenBLAS) may move bits on a CPU without AVX-512,
and another numpy or BLAS build may move them too.  A failing digest's message
names the core that numpy's and scipy's OpenBLAS picked; re-pin only after
checking that the program did not change.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_features__

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
    convergence_probe,
    physical_terminal_sample,
    price_both,
    price_physical_weighted,
    price_riskneutral,
    sample_paths,
    simulate_scenario_paths,
    transform_increments,
)
from fracvol.cli import main
from fracvol.pricing import xi_draws
from fracvol.rde import euler_paths
from fracvol.rng import batch_uniforms, stream_keys
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
# Presets of other asset counts than the two above, with payoffs on the
# first and last asset and an equal-weight basket.
ASSET_PRESETS = {
    "one": lambda: constant_vol_scenario(vol=(0.3,), drifts=(0.1,)),
    "three": lambda: constant_vol_scenario(vol=(0.5, 0.2, 0.3), drifts=(0.1, 0.02, 0.03)),
}
ASSET_PAYOFFS = {
    "call0": lambda d: Call(0, 1.0),
    "putlast": lambda d: Put(d - 1, 0.9),
    "basket": lambda d: Basket(np.full(d, 1.0 / d), 1.0),
}
ESTIMATORS = {"physical": price_physical_weighted, "riskneutral": price_riskneutral}
PROJECTIONS = {"projected": True, "free": False}
SIMULATE_KEYS = ("xi", "w", "b", "state", "vol", "prices", "margin")
# Pricing checks the singular law at its cutoff and half of it, a constant
# law at its value.
CHECKER_PROBES = {"worked": ("1", "0.5"), "constant": ("0.1",)}
CHECKER_MODES = ("cone", "hyperplane")
CHECKER_SAMPLES = ("64", "256")
# (streams, draws per stream) of the pinned `batch_uniforms` calls.
RNG_SHAPES = ("2048x16", "256x1", "512x256", "3x5")
RNG_SEED = 2024
# Seed of the batch-of-one cases' drivers; at ξ = 0.8 its unprojected solve
# leaves K(ξ), so projection moves it.
PATH_SEED = 9


def _blas_cores() -> dict[str, str]:
    """The OpenBLAS core that numpy's and scipy's own OpenBLAS each picked when
    it loaded, read through its C API, e.g. {"numpy": "SkylakeX", "scipy": "SkylakeX"}."""
    cores = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                           "openblas_get_corename"):
                corename = getattr(handle, symbol, None)
                if corename is not None:
                    corename.restype = ctypes.c_char_p
                    cores[package.__name__] = corename().decode()
                    break
    return cores


BLAS_CORES = _blas_cores()
CORES = ", ".join(f"{package} {core}" for package, core in BLAS_CORES.items()) or (
    "no bundled OpenBLAS found"
)
# The pinned kernels, by their `OPENBLAS_CORETYPE` names, and the numpy CPU
# features each needs.  OpenBLAS reports its Prescott kernels as "Katmai".
KERNEL_FEATURES = {"SkylakeX": ("AVX512_SKX",), "Haswell": ("AVX2", "FMA3"), "Prescott": ("SSE3",)}
REPORTED_AS = {"Katmai": "Prescott"}
KERNEL = REPORTED_AS.get(BLAS_CORES.get("numpy"), BLAS_CORES.get("numpy"))


def _config(project: bool) -> MCConfig:
    return MCConfig(paths=600, project=project)


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


def _estimate_digest(estimator, payoff, scenario, mc) -> str:
    try:
        result = ESTIMATORS[estimator](PAYOFFS[payoff], scenario, mc)
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
        return _estimate_digest(
            kind, payoff, SCENARIOS[scenario](), _config(PROJECTIONS[projection])
        )
    if kind == "assets":
        preset, what = rest[0], rest[1:]
        scenario = ASSET_PRESETS[preset]()
        if what == ["terminal"]:
            return _array_digest(*physical_terminal_sample(scenario, _config(True)))
        payoff = ASSET_PAYOFFS[what[1]](scenario.dims)
        results = price_both(payoff, scenario, _config(True))
        return _text_digest(json.dumps([r.to_dict() for r in results], sort_keys=True))
    if kind == "simulate":
        scenario, projection = rest
        paths = simulate_scenario_paths(
            SCENARIOS[scenario](), 3, project=PROJECTIONS[projection]
        )
        return _array_digest(*(p[key] for p in paths for key in SIMULATE_KEYS))
    if kind == "kernel":
        *steps, hurst = rest
        grid = TimeGrid(1.0, int(steps[0]) if steps else 64)
        return _array_digest(build_kernel_matrix(grid, float(hurst)).entries)
    if kind == "fbm":
        cfg = FbmConfig(0.7, dims=2, seed=13)
        return _array_digest(sample_paths(TimeGrid(1.0, 64), cfg, 4, method=rest[0]))
    if kind == "euler":
        sc = SCENARIOS["worked"]()
        driver = sample_paths(sc.grid, FbmConfig(0.7, 2, PATH_SEED), 1)
        poly = sc.polyhedron(0.8)
        constraint = (poly.normals, poly.offsets) if PROJECTIONS[rest[0]] else None
        db = np.diff(driver, axis=1)
        states = euler_paths(sc.coefficients, 0.8, db, sc.initial_state, sc.grid.dt, constraint)
        return _array_digest(states[0])
    if kind == "transform":
        grid = TimeGrid(1.0, 64)
        w = sample_paths(grid, FbmConfig(0.5, 2, PATH_SEED), 1)
        km = build_kernel_matrix(grid, float(rest[0]))
        return _array_digest(transform_increments(np.diff(w, axis=1), km)[0])
    if kind == "probe":
        sc = SCENARIOS["worked"]()
        grid = TimeGrid(1.0, 64)
        probe = convergence_probe(
            sc.coefficients, 0.8, sc.initial_state, sc.hurst, grid, PATH_SEED, int(rest[0])
        )
        return _array_digest(np.array(probe))
    if kind == "xi":
        return _array_digest(xi_draws(SCENARIOS["worked"]().xi, PATH_SEED, 0, 16))
    if kind == "rng":
        streams, n = map(int, rest[0].split("x"))
        return _array_digest(batch_uniforms(stream_keys(RNG_SEED, range(streams), [0]), n))
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
    if kind == "bundle" and rest[0].startswith("fbm-"):
        out = tmp_path / "fbm"
        argv = ["fbm", "--hurst", "0.7", "--steps", "16", "--dims", "2", "--paths", "2",
                "--seed", "13", "--method", rest[0].removeprefix("fbm-")]
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
    + [f"assets/{a}/terminal" for a in ASSET_PRESETS]
    + [f"assets/{a}/both/{f}" for a in ASSET_PRESETS for f in ASSET_PAYOFFS]
    + [f"simulate/{s}/{p}" for s in SCENARIOS for p in PROJECTIONS]
    + ["kernel/0.3", "kernel/0.7", "kernel/1024/0.7", "kernel/256/0.55", "kernel/256/0.85"]
    + ["fbm/wood-chan", "fbm/cholesky"]
    + ["euler/free", "euler/projected", "transform/0.7", "probe/4", "xi/singular"]
    + [f"rng/{shape}" for shape in RNG_SHAPES]
    + [
        f"checker/{s}/{m}/{n}/{xi}"
        for s in SCENARIOS
        for m in CHECKER_MODES
        for n in CHECKER_SAMPLES
        for xi in CHECKER_PROBES[s]
    ]
    + ["bundle/reproduce-section4", "bundle/simulate-project"]
    + ["bundle/fbm-woodchan", "bundle/fbm-cholesky"]
)

GOLDEN = {
    "terminal/worked/projected": "cc1b50292f5d046265861123f7c2f15cd183774c7dc94f6f054080d6711aeb8b",
    "terminal/worked/free": "a170920818505f144b8952f44720be8ca33968b427e2345c3b0fcaab93710862",
    "terminal/constant/projected": "77907a2f23639cba1a87eb1d1951cd2be2a6c39dae73965f39fec76aa8304310",
    "terminal/constant/free": "77907a2f23639cba1a87eb1d1951cd2be2a6c39dae73965f39fec76aa8304310",
    "physical/worked/projected/call0": "9a232e86b8375095a46014f03b1b587831482d88d7c0c89506eb4054c5ce8a4b",
    "physical/worked/projected/put1": "f4b0b341e7abd8990812d72333dcc809a42bdc10fc1c630cbcbf9eeb647ef132",
    "physical/worked/projected/basket": "267abfb346ec4f8aa4f9cec2365ab3e463cc2b6aef3dc65abe6071c0034b54d9",
    "physical/worked/free/call0": "8af817c8506316c3cbd917746fcd8cec03d9969cdddafe2792a604838f37772a",
    "physical/worked/free/put1": "8af817c8506316c3cbd917746fcd8cec03d9969cdddafe2792a604838f37772a",
    "physical/worked/free/basket": "8af817c8506316c3cbd917746fcd8cec03d9969cdddafe2792a604838f37772a",
    "physical/constant/projected/call0": "44e30d0002df0a9296e1be4f68dccbe710f0d6fb6a1ce4ea85308ae041700031",
    "physical/constant/projected/put1": "13ef612f46d9cf0e849798635f0d9059b440daaaeac14d779c226174a626fc9a",
    "physical/constant/projected/basket": "ca2ce942415b745c89b592530d0afa86b672f871665643db89b286d2f6e257c0",
    "physical/constant/free/call0": "44e30d0002df0a9296e1be4f68dccbe710f0d6fb6a1ce4ea85308ae041700031",
    "physical/constant/free/put1": "13ef612f46d9cf0e849798635f0d9059b440daaaeac14d779c226174a626fc9a",
    "physical/constant/free/basket": "ca2ce942415b745c89b592530d0afa86b672f871665643db89b286d2f6e257c0",
    "riskneutral/worked/projected/call0": "808f433ff4b3fe20784ea6b6a5be8677557b646d5cf12ed4824814ceed31ae2f",
    "riskneutral/worked/projected/put1": "621b6ec2122852f65b784a66941c4ab81f93d25e6a89e6078fbcad159eb5ba8c",
    "riskneutral/worked/projected/basket": "a16b76eeaaa1dd00b5617dd70a1c0f8f0cbf43c83140efaf1986ed67af6e8650",
    "riskneutral/worked/free/call0": "2f376cebf78689f617cfa4b4dc918bed0d01c588d4a34e8fcc6e229a22f83bd1",
    "riskneutral/worked/free/put1": "2f376cebf78689f617cfa4b4dc918bed0d01c588d4a34e8fcc6e229a22f83bd1",
    "riskneutral/worked/free/basket": "2f376cebf78689f617cfa4b4dc918bed0d01c588d4a34e8fcc6e229a22f83bd1",
    "riskneutral/constant/projected/call0": "40be9fca92e1bb5a691a23d851027839b9e4cf16b999d9adcf850dfec5df126a",
    "riskneutral/constant/projected/put1": "8a8f637ed47e59f8eff326a16064f2fe513885b13a5c7c2ff0d27227661a748f",
    "riskneutral/constant/projected/basket": "c67caf5c351fb136ba905b9f5e5f69554c48cb137319f7de9135fe75e4097fa9",
    "riskneutral/constant/free/call0": "40be9fca92e1bb5a691a23d851027839b9e4cf16b999d9adcf850dfec5df126a",
    "riskneutral/constant/free/put1": "8a8f637ed47e59f8eff326a16064f2fe513885b13a5c7c2ff0d27227661a748f",
    "riskneutral/constant/free/basket": "c67caf5c351fb136ba905b9f5e5f69554c48cb137319f7de9135fe75e4097fa9",
    "assets/one/terminal": "03e3682e51fde9606ad393f268e9c8ceba559b58ac8c04afb01598674bce8c77",
    "assets/three/terminal": "284b01be1df3ba3d90822d097d5b63e90d9a39666f55132ff5c53e2c2017981a",
    "assets/one/both/call0": "c8194597d4b038d01e41055a83cfc55e6efbabb1c8236fb7b4f4dbadfe6991f9",
    "assets/one/both/putlast": "045091b2533f227cecebd435507514e8cec7b442417e8b07fc0e84ef6c9f7ea3",
    "assets/one/both/basket": "c8194597d4b038d01e41055a83cfc55e6efbabb1c8236fb7b4f4dbadfe6991f9",
    "assets/three/both/call0": "d13947a51c1af5a4cd905a2f4f7cbe278f824ca496f57cc1f78823066df828ca",
    "assets/three/both/putlast": "314e325306fde17a214d5f3132254bc1230ddd2c459bea93f32e0dfd68a80933",
    "assets/three/both/basket": "42f3212dc093778943495426f5f46d2bcbe7345003defd445d78d859cb924a54",
    "simulate/worked/projected": "aa32acd9ca71fa16110f536978df462bdf99e5949058a13b7eea8b78c7479efc",
    "simulate/worked/free": "dd973e1a12787153c5b798a0e7687aec9173f439d164ceda79919a2fd066df23",
    "simulate/constant/projected": "34827b74c676c3121fc22c2b0e291558c0ee8d0949a3e86f1feec6c56cc9434b",
    "simulate/constant/free": "34827b74c676c3121fc22c2b0e291558c0ee8d0949a3e86f1feec6c56cc9434b",
    "kernel/0.3": "04b323473e9d207d7442f0df6c19768e5670a5351aaf4e9886fe70cfc226584d",
    "kernel/0.7": "83f43949dd3e7e1b6f2bd112a705ad177cb62583192ea6b64ffaa83385cd62e8",
    "kernel/1024/0.7": "b424549f77eef4733e10c3dfad2fb9d99be398ab8e8b59cf44c9129db9a5d875",
    "kernel/256/0.55": "bf71c7f7b6f4faab788776100c45bc83c64dbcd8387ce1dca9022d7dc69fcdd2",
    "kernel/256/0.85": "d2436897853d5d998c5451ddf2e9b59ce31559dad590f1d2671b6dd1e2b4b607",
    "fbm/wood-chan": "d78f82c87c810d5f63ab402d0cd163cb4aae9b403fd1b51cd3e4096226579a4d",
    "fbm/cholesky": "d56c2eb8661f5f6f4f45661d7b2c19b3e8711ddc2bf8c53b09c870f69cc2546d",
    "euler/free": "204bd6df383286863e78a901d5849b709033936b01bc0845da794be5a9aa4000",
    "euler/projected": "7766163e41faecb95eab5c5595b0938e5cbec9ea8247b63b9c15a997b2354adb",
    "transform/0.7": "0fea144a0bce1d1d9e3a313f95dcfe7f5879319fa8e4c5d82d6812b5113a9e55",
    "probe/4": "0d76ced5486cb97ad26bc1aab7989b440ae7c49340bb1cd5e667d3d0ab2fa39d",
    "xi/singular": "4052d1f04225fc6b8c8e19faa929c1ace7b736c2c431b7a7c740a0799facf841",
    "rng/2048x16": "eebda2aa9b538c9d3c4826a349a77addf3c73a9e53b511e0947af5cdc93e1aea",
    "rng/256x1": "4e8830fe4ea63eea255c49d0623e5cdbae9e7e943c3973064172272df259ece1",
    "rng/512x256": "ac530f25783ae99debc7a1913fc5dcce8f2888ae5e9d37a09f1f119d682979b2",
    "rng/3x5": "686ead96bfb57dd4f0c20223a793833c4e71bd932f4c6d8e97613e215c1a44d8",
    "checker/worked/cone/64/1": "3c3097c6ddd584de04af11541dabd14656d14c4573c490e577d8979bae253472",
    "checker/worked/cone/256/1": "3c3097c6ddd584de04af11541dabd14656d14c4573c490e577d8979bae253472",
    "checker/worked/cone/64/0.5": "c132cdfdc2c8a8631cb956c40379fd4791354af6e345cefac3a559fc12cfd55c",
    "checker/worked/cone/256/0.5": "c132cdfdc2c8a8631cb956c40379fd4791354af6e345cefac3a559fc12cfd55c",
    "checker/worked/hyperplane/64/1": "15eb337ee0cab35b609cb8befd00496d8a73d4ee201eba164807013047dbb6d5",
    "checker/worked/hyperplane/256/1": "15eb337ee0cab35b609cb8befd00496d8a73d4ee201eba164807013047dbb6d5",
    "checker/worked/hyperplane/64/0.5": "1741715500124e74f83e9a1aba192f6196c6a27632407fc0f3b0edf822199bb5",
    "checker/worked/hyperplane/256/0.5": "1741715500124e74f83e9a1aba192f6196c6a27632407fc0f3b0edf822199bb5",
    "checker/constant/cone/64/0.1": "c4250b29a116aecdd9d841ecc5b715789f3c833d3f37ba07782c99ea2d66f987",
    "checker/constant/cone/256/0.1": "c4250b29a116aecdd9d841ecc5b715789f3c833d3f37ba07782c99ea2d66f987",
    "checker/constant/hyperplane/64/0.1": "0ef1d0b4f4c968346f088a3cd2c3676b89f24d8973fa2646f94463067f4726b4",
    "checker/constant/hyperplane/256/0.1": "0ef1d0b4f4c968346f088a3cd2c3676b89f24d8973fa2646f94463067f4726b4",
    "bundle/reproduce-section4": "716ace99ee659ee608e2b6a51dbd2532307e7b696e3a6d7da213a059848faa69",
    "bundle/simulate-project": "f7afd200ff2334896fa6f1aa31c49d04e51fac05bf2b07627583f4cf4f0893ec",
    "bundle/fbm-woodchan": "1a7abe5ef6ba02134521e01255d64042ad4bd3d99b400e4fd53ef4fd84c23e55",
    "bundle/fbm-cholesky": "1fdca367c0b9449493d3bee21270aa4b87c04c14ba4e7b01af4bae2e6cd78bb8",
}

# The digests that the Haswell and the Prescott kernels move; each kernel's
# table is the SkylakeX one above with these in place.
HASWELL = {
    "terminal/worked/projected": "d7d882018cae794a6cf228624bde0e842df87cbb3f273d0d3d5acfdc05b24cb5",
    "terminal/worked/free": "8fa6d65fdbb5a4988287c4c03d4013fd5b5c0fd47fc9c720f6a3f2461f95d3ec",
    "physical/worked/projected/call0": "0967d1426162fba8846acbe4992b166bbe6e7476c0b16db8e9877030f24c5997",
    "physical/worked/projected/basket": "5214d54b1477b79736677969589d3216a54cb39ee5ff4c83f7ea37808280488e",
    "riskneutral/worked/projected/call0": "c03491af498b7db14b12f05eaeb99c0a81594d77298bebb8b2bc21aeaee1fe20",
    "simulate/worked/projected": "f1c79a8f03fd0d806265316761b248aad7e58bc589eabb9f0d45765ddb371ec7",
    "simulate/worked/free": "1ba0947961c5d2bf3e29eeecbf1eff3537e583f05b1a656a723b6873ceeaabcd",
    "simulate/constant/projected": "1a225b19f8111b162d087d8245a2920004726d7f577f0929edec4b50358dddd0",
    "simulate/constant/free": "1a225b19f8111b162d087d8245a2920004726d7f577f0929edec4b50358dddd0",
    "fbm/cholesky": "35f500557544c44e7fefc306622a36e566743007a5ca490d404cf4912ad53b37",
    "transform/0.7": "d8b1c538f011cbbe6eb28caff769f413c0396277082cfeecdf537f2940d20efb",
    "bundle/reproduce-section4": "87b25706cbee4a7adf58dd63eba806c535a31c4155c2dfc5c94d90ec20fa1df6",
    "bundle/simulate-project": "59cd080872e4f63485bf23226be06b6b7ea4419ffd68c7565a79088848df5171",
    "bundle/fbm-cholesky": "54cc3e4e7dc21d146486e2ec713f8a251cb0acc4ba640e2cb9befeee4e2542b6",
}
PRESCOTT = {
    "terminal/worked/projected": "5ba2b25eff1db399477357d59cbec403a08d842bcbfa8505107e192dc3ab0241",
    "terminal/worked/free": "075b4d8e6f52d6eb0363ed1c73c2c31dc6efa8ebe9ccf5ed31d1f0b476c1ee02",
    "physical/worked/projected/call0": "dcd0e5c6a502748f8677f256e861c24b687339696ad56c30b57663ec06149bf7",
    "physical/worked/projected/put1": "f9d8528ad2edcdc37a2c2cc325ddf1874e27676b0f90e7a88c6a0b96da5e866d",
    "physical/worked/projected/basket": "b4f754b7d4d835cba231a6bbd17ae5da741d1ceda021dc51991967aaea1463c0",
    "riskneutral/worked/projected/put1": "59fa622a359a1f582de828bfbc5f66902df403ac0d571208b04c99954e6300ff",
    "assets/three/both/basket": "14076737053e767cdbd587124f539f222a31e793c357132a5ca28ed4c28cbde5",
    "simulate/worked/projected": "fbec3acb59ae537b1904bf77436ed8c9ddb1bcf4e5c54292e6755caba890d446",
    "simulate/worked/free": "d1f36857ebeb92817e01702966f6147edbc30c65e5b6caf1dbb6937fdc4a67a5",
    "simulate/constant/projected": "2d9d91a8edeaae57a4fd92d39f3d656aacb1511449d0f623589a373c044f8212",
    "simulate/constant/free": "2d9d91a8edeaae57a4fd92d39f3d656aacb1511449d0f623589a373c044f8212",
    "kernel/0.3": "55908daa73e1e93d53786d1e5eaba43197214c1cebc36b7c48afe099869eab73",
    "kernel/0.7": "431355ac79c80968bf410d42594dc291affb301aa84621d5208a9064608a5e1f",
    "kernel/1024/0.7": "93088acd0502a4b58b8fe16ec9a0ca9ec1f442a2576b795cf3b6f2f686961d7e",
    "kernel/256/0.55": "038a1016df09927398450cbdc4cfa2a430bea9d6ba0d1c0bfc5e0af29a25c3dd",
    "kernel/256/0.85": "71b7b79344ae58e762f18f29c706d5109410f6baad8922346e769ba3525df5a9",
    "fbm/cholesky": "3b22df871f60391a9f647b83a77d2a8af3a9b939dbf812417e8eb53838c3eb80",
    "transform/0.7": "143272562c07f49fd66168920995288bb3533519c29229a6c5ef625e484ef5b0",
    "bundle/reproduce-section4": "65ad606adfe001597ae0c32b436ed0f0056de94bea001d001ebd2eec2a3b100e",
    "bundle/simulate-project": "dfd7e38fa1a3036d7f8bde8f939d229ac2f228fb61ad5a6746c5999ab91c13e9",
    "bundle/fbm-cholesky": "3a2e3f1d2b19f08ee477da170644107044de0d0b88da049716672397e2ce5ea4",
}
KERNEL_TABLES = {"SkylakeX": GOLDEN, "Haswell": GOLDEN | HASWELL, "Prescott": GOLDEN | PRESCOTT}
# A kernel without a table is checked against the SkylakeX one, and fails
# `test_this_kernel_has_a_table`.
TABLE = KERNEL if KERNEL in KERNEL_TABLES else "SkylakeX"
EXPECTED = KERNEL_TABLES[TABLE]
# Said by every digest assertion: a digest that fails only on another core
# points at the BLAS kernels, not the program.
PINNED_ON = f"digests checked against the {TABLE} table; OpenBLAS cores: {CORES}"


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
    assert set(HASWELL) | set(PRESCOTT) <= set(CASES)


def test_this_kernel_has_a_table():
    if KERNEL not in KERNEL_TABLES:
        pytest.fail(
            f"no golden digest table for OpenBLAS core {KERNEL!r} ({CORES}); pinned: "
            f"{', '.join(KERNEL_TABLES)}; OPENBLAS_CORETYPE picks one of them at process start"
        )
    requested = os.environ.get("OPENBLAS_CORETYPE")
    if requested:
        assert KERNEL.lower() == requested.lower(), f"OPENBLAS_CORETYPE={requested}: {CORES}"


def test_golden_module_under_every_kernel_this_cpu_runs():
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so each kernel needs a
    # process of its own
    kernels = [
        kernel for kernel, features in KERNEL_FEATURES.items()
        if all(__cpu_features__.get(feature) for feature in features)
    ]
    assert kernels, f"this CPU runs none of the pinned kernels ({CORES})"
    root = Path(__file__).resolve().parents[1]
    for kernel in kernels:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
             "-k", "not under_every_kernel"],
            cwd=root, env={**os.environ, "OPENBLAS_CORETYPE": kernel},
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, f"under {kernel}:\n{done.stdout[-4000:]}{done.stderr[-2000:]}"


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.setattr(MCConfig, "batch_size", 256)  # 600 paths in three batches
    assert _digest(case, tmp_path) == EXPECTED[case], PINNED_ON


@pytest.mark.parametrize("batch_size", [256, 600])
@pytest.mark.parametrize("projection", PROJECTIONS)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_every_payoff_on_one_instance(estimator, scenario, projection, batch_size, monkeypatch):
    # Every payoff priced in turn on one scenario instance, in three batches
    # and in one batch of all 600 paths; later payoffs take the first one's
    # outputs over the whole run from pricing's run memo, and the batch
    # layout moves no bits of these estimates.
    instance = SCENARIOS[scenario]()
    monkeypatch.setattr(MCConfig, "batch_size", batch_size)
    mc = _config(PROJECTIONS[projection])
    for payoff in PAYOFFS:
        digest = _estimate_digest(estimator, payoff, instance, mc)
        assert digest == EXPECTED[f"{estimator}/{scenario}/{projection}/{payoff}"], (
            f"{payoff}: {PINNED_ON}"
        )


def test_unprojected_worked_example_breaches():
    with pytest.raises(BreachRateError, match="breached the volatility floor"):
        price_physical_weighted(PAYOFFS["call0"], SCENARIOS["worked"](), _config(False))
