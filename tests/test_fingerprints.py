"""Frozen fingerprints of the structure constants and of the verify facts.

Each structure digest is the sha256 of ``json.dumps(serialize(alg),
sort_keys=True)``, so it pins the basis order and labels, every
structure-constant value and sign, and the pairing.  The digests were
recorded before the lagrangian and spinorial builders were merged into one
eps-parametrized builder; any change to a basis convention must update
them deliberately.

Each facts digest is the sha256 of a ``verify`` report with every float
``residual`` removed: it pins the check names, ``passed`` flags, integer
values, kernel dimensions and ``detail`` dicts, and leaves the residuals
free to move in their last digits.  The digests were recorded before the
Spencer ranks, the harmonic sampler and the oracle went block by block;
those of lagrangian and spinorial m = 7 before the dense operators were
read by a chunked flat scan and the matrix cross-check was batched.  The
structure digests of conformal m = 7, 8 and projective q = 5, 6, 7 were
recorded before those two builders went from scalar bracket loops to
index-array writes.

Each harmonic digest is the sha256 of the bytes of three
``harmonic_sampler`` draws at grade -1, at grade 0 and, on grassmannian
points, block-trace-free at grade 0, followed by one ``ref_harmonic_decompose``
split (harmonic part and psi) per grade.  They were recorded before the
sampler and the decomposition came to share one Hodge projector.  The split
takes d psi from ``ref_spencer_d``, the einsum over the dense block that
``spencer_d`` used to be, so the digests stayed as recorded when the library
came to apply d from its triplets, which sum in another order.  The eight
grassmannian digests from p, q = 1, 3 on were recorded again when the
block-trace correction went from the SVD of a dense (n^2, n^2 n0) map to a
block pseudo-inverse of its Gram matrix on the a < b rows: the draws moved
by rounding only, and at p, q = 1, 1 and 1, 2 not at all.  Unlike
the digests above they pin floating-point output that passes through
LAPACK SVDs and BLAS products, whose last bits depend on the BLAS build,
its kernels and its thread count; they are computed in a child process
pinned to one thread and to OpenBLAS's Haswell kernels, and compared only
under the BLAS build they were recorded with.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import GRID, grid_id, ref_harmonic_decompose

from ahsnormal import build_algebra, serialize
from ahsnormal.cli import main
from ahsnormal.spencer import TwoCochain
from ahsnormal.testkit import harmonic_sampler

FINGERPRINTS = {
    "conformal-3": "764cd528b4cf9e912e0b935bf857d43730606598fd164cbc4976493c7e6290e1",
    "conformal-4": "7e24af3aa64cfbb48574ea51bd03944be23f63d8b0ad11b19d22c9f8930b5710",
    "conformal-5": "334513aa6265f76efb8be04e7e6c54856110070ed45d8122ee9ec44009e6f194",
    "conformal-6": "0cda7e10b2fde24e17c8bd73731b09608217ee8d3174aab72b790f921600d4e4",
    "grassmannian-1-1": "97302624861c52a4f96fc9d722a74782d7af73f020e9ba8bd787ccbfe8fbdc1f",
    "grassmannian-1-2": "96e88cbe72e167659d89aed9310072716910548a7de0472adb0952cbc0c3b9f8",
    "grassmannian-1-3": "7c21333a0d1ccc57edd8d83372b0dd4a80d1fe997179ca9d4887cab5a9b33cbe",
    "grassmannian-1-4": "1fd99cc8ae0c6336dedf9d1de4b38b62eb09d933f55a2e157f4fdbd8e03c629e",
    "grassmannian-2-2": "21e7680874818b25463bb6bbe082941838499291bb62997594877c8744a40288",
    "grassmannian-2-3": "6159308329ac1b77fa7dff8d5cdec7cce3e7d64a648b6ed2f96c07ec8d4ee6b9",
    "grassmannian-2-4": "cb860890e7dbdfba2378158c7ba1ff6e853afe0424f561436c0ae909bd2cd370",
    "grassmannian-3-3": "353efac27ed8849b62f46e897799d6d8dfb9f657bde82eace35e9784c70c85f7",
    "grassmannian-3-4": "6f3382e0e21353096389ffe3cab39c4a91df2d2d19f3f5dafd0eb990f7a6a76b",
    "grassmannian-4-4": "c56791698316970e39f612d8c446b5c2d35c95e8342373e02e47b98817af4dda",
    "projective-2": "dc2a84f85c5c86f90457e8b7fc05fcd7ebf1209caac9bcabf80e283e0b83b07a",
    "projective-3": "a050f0f465c3c046e2204aedcd6e384e722e20b9279f3040f7199bde00b056f5",
    "projective-4": "a2e7d7c03e57b57cc76ef8814904d0158c8a4d249e3bf63fe508847e7e1c7dcb",
    "lagrangian-3": "64cc166aa63f739fa4ef2dc633c7726a58b31f7530d13c7af01e951eeb059d21",
    "lagrangian-4": "0c9277ad24a535968399fd4cd156fa1f0a82fcf55cc44fdfdf8fe71d417022f1",
    "lagrangian-5": "5846622eb4c5ca5cd369d41dee44408c652745a7153b87aeb4ba13d8f866ebb6",
    "lagrangian-6": "f616e327bc6ee824b3189eebec036c4e8c8f269dd3bae9eee9d1d0576e82b410",
    "spinorial-3": "8d9eab212de83a5e07827a94fbb2853acbc0579597f3f23a2c77bc3f5ea59512",
    "spinorial-4": "9f3d404228c5ecb18594a1b3a633716716ca93c90f924941cf1bde9ebd66550d",
    "spinorial-5": "759132a736a488fe66e450d653e73de1d27d430409870449bfcdc390f7c7a9a7",
    "spinorial-6": "4b28436aba3d9f3ef3e6fa7982e96348e2d0991b01a7b9d75a3076219ba232a4",
    "lagrangian-7": "8193bf3fbfc3e392414210b51304c7a7f319a137832f02d52805c03f0a2eaba8",
    "lagrangian-8": "79de23a450063913243c6bd8254e2e546f6cf95370d6c7ae79450ffefc761695",
    "spinorial-7": "a93dc6fc2acb28b344c0ce78c293f80dd47f5a118467294f81a10b4ced8f3ead",
    "spinorial-8": "3ab5fcd8ab066579e07be82d5c9ce384c8ac6db32a857c08c73f1eae25d4b0dc",
    "conformal-7": "6e6e461bc1ac832072553c30525d2e9b70fed1d78a0ac005747e645e85b39a1c",
    "conformal-8": "ea5eef31fe7910edcfd2450c7bcab91c826a850aadb248a1212a63ee5b00cdd8",
    "projective-5": "570a263c2c454af1b768a51f14a6b0d20366e9d0586afb132247afefc329541f",
    "projective-6": "f8481efc6e2d1bc22073b8f0f36f9839025bb6fe8e6cf3ced579072a88d33978",
    "projective-7": "494540dde762b2102a80a8108a536f2654fa2e54fd55a236f5089a09dfd92f7c",
}

VERIFY_FACTS = {
    "default-grid": "a577af951ee9f29007a0fbbea160632cdb08a06a383aa030c75087834e100303",
    "lagrangian-6": "0617bcfe4fe3e2d206fd0b6f5be68e0b282c76c8d0cfb5618de7e90fa742d5ff",
    "spinorial-6": "9818ed5217d4d342e8daa51dfe481420c5768f3070f7f3b9a1114f66a4300267",
    "lagrangian-7": "5dff7d5a1a4da28a7d829b058aa0084a1bae58dba8c650529df0ac6835071ee5",
    "spinorial-7": "33c5b0b8f757bdc55abb862d4bd4419e8d0beba533a90b2afd22da99cddb5cb9",
}

VERIFY_ARGS = {
    "default-grid": [],
    "lagrangian-6": ["--kind", "lagrangian", "--m", "6"],
    "spinorial-6": ["--kind", "spinorial", "--m", "6"],
    "lagrangian-7": ["--kind", "lagrangian", "--m", "7"],
    "spinorial-7": ["--kind", "spinorial", "--m", "7"],
}

HARMONIC_DIGESTS = {
    "conformal-3": "6794b3c98fc99092714d9c0311ffa73c8a0c67f5a882d4fdf2f51e47503402a3",
    "conformal-4": "8bd8970dbe1be4f31b29548281db0ee59fb63c8015bbcfb82cc5f3961fb22a5c",
    "conformal-5": "208cdc687827c52f2a5c1da2b17062291998cc0a5b2159b95644a20c039baf93",
    "conformal-6": "1d94a30cf26f6dcb6a059de1ab0a70b63f4c363c7865c22871ca5e8c6c2e8fdb",
    "grassmannian-1-1": "39f37f8d1931b3bdf767e7510dd69509fbf23af1f7654933d0a4d291cbdd4418",
    "grassmannian-1-2": "3b8b08fa123a1e9ab8d05840beb5b16d93381c392e39dddefc9ea08f956452b4",
    "grassmannian-1-3": "abd5b953370d97eb849f82f2032102c69b66c523f1e512616e81249cf8c7c821",
    "grassmannian-1-4": "a52844e114458afa853fd43906129257486cb7d8f0d1f35c568385bc2981366d",
    "grassmannian-2-2": "41ee1cceb6de97e3ce595b71910a6580fe086936f4d9bd92bf0eac9a91f6bb6f",
    "grassmannian-2-3": "f1da73da296648b017d426ae32e7d8c1ef8b47e59a1cfc4373ac0f555364fa15",
    "grassmannian-2-4": "b978deaf5e355865df7e01697b43eea93632f3e25215a7229bb76045216ba278",
    "grassmannian-3-3": "60bf045314bf94ac9daa5e48691e766cca6d4054884db7e2c06dc3b2f4a19511",
    "grassmannian-3-4": "a9c352c1c844e6c0dd2c90141ba9c5fa9a042b0ac605761c27552c10beee504d",
    "grassmannian-4-4": "c37366195d27078c8697cfe6662e407989fd19f7c8fc41d18e91e655898995ea",
    "projective-2": "a1ea14c1440971d1a9c54bc5909514fb4d8e4cbee3845c7905c2508c9c25f6ff",
    "projective-3": "16390a2f9f77fee555a9326a89899f744bbf566dc02910eb9207353f60d4a857",
    "projective-4": "9fc2831d7495afc1d85576b438842df5f59017a9e3319d7469afdf28bfca4b98",
    "lagrangian-3": "756bb054a7265334f4b5a962c747bda8ec74b0d3f9d91e69fcc2a195e7b0fe17",
    "lagrangian-4": "e473ac7a064d57a90b9f42e5b0f52ed4782bea9c4258ff39d60edbe212a2cebc",
    "lagrangian-5": "400b85f124c428bd25fb119dac7b3be8f85a0ba965cb69bd1dc5cd58a1be6e15",
    "lagrangian-6": "0c4ef890ec08030f7941547d40ab822b07bb13143dd3c342c69be3a1bf2213cc",
    "spinorial-3": "5005a96c6301e2b92c351302aa301561410d13f9488419802e043f7917b4fe91",
    "spinorial-4": "e5f06b9811e8482ff90ea23bbbc1d100940eeab4b781920d394d42c5bac5f4df",
    "spinorial-5": "94b658d5168fc101941444b11df42c2aa51f56f0acdde06f47ff152cbdf71f3d",
    "spinorial-6": "a3d65958bd8be436683d24f6a0f1dd3cc81417f39188e94d877364478fc6428c",
}

HARMONIC_PLATFORM = "x86_64 scipy-openblas 0.3.31.188.0"
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}

POINTS = (
    list(GRID)
    + [(kind, {"m": m}) for kind in ("lagrangian", "spinorial") for m in (7, 8)]
    + [("conformal", {"m": m}) for m in (7, 8)]
    + [("projective", {"q": q}) for q in (5, 6, 7)]
)


def fingerprint(kind: str, params: dict) -> str:
    text = json.dumps(serialize(build_algebra(kind, **params)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_point_has_a_fingerprint():
    assert sorted(f"{kind}-{grid_id(params)}" for kind, params in POINTS) == sorted(FINGERPRINTS)


@pytest.mark.parametrize("kind,params", POINTS, ids=grid_id)
def test_structure_constants_fingerprint(kind, params):
    assert fingerprint(kind, params) == FINGERPRINTS[f"{kind}-{grid_id(params)}"]


def facts(node):
    """The report with every ``residual`` entry removed, at any depth."""
    if isinstance(node, dict):
        return {k: facts(v) for k, v in node.items() if k != "residual"}
    if isinstance(node, list):
        return [facts(v) for v in node]
    return node


@pytest.mark.parametrize("name", sorted(VERIFY_ARGS))
def test_verify_facts_fingerprint(name, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", *VERIFY_ARGS[name], "--output", str(out)]) == 0
    text = json.dumps(facts(json.loads(out.read_text())), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_FACTS[name]


def harmonic_digest(kind: str, params: dict) -> str:
    alg = build_algebra(kind, **params)
    n = alg.dims[0]
    h = hashlib.sha256()
    for grade, trace_free in [(-1, False), (0, False)] + [(0, True)] * (kind == "grassmannian"):
        draw = harmonic_sampler(alg, grade, block_trace_free=trace_free)
        rng = np.random.default_rng(31)
        for _ in range(3):
            h.update(draw(rng).data.tobytes())
    rng = np.random.default_rng(37)
    for grade in (-1, 0):
        t = rng.uniform(-1.0, 1.0, (n, n, alg.dims[grade + 1]))
        harm, psi = ref_harmonic_decompose(alg, TwoCochain(grade, t - t.transpose(1, 0, 2)))
        h.update(harm.data.tobytes())
        h.update(psi.data.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def harmonic_digests() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    here = f"{platform.machine()} {blas.get('name')} {blas.get('version')}"
    if here != HARMONIC_PLATFORM:
        pytest.skip(f"harmonic digests were recorded under {HARMONIC_PLATFORM}, not {here}")
    proc = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, **PINNED_BLAS},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_grid_point_has_a_harmonic_digest():
    assert sorted(f"{kind}-{grid_id(params)}" for kind, params in GRID) == sorted(HARMONIC_DIGESTS)


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_harmonic_draws_fingerprint(kind, params, harmonic_digests):
    name = f"{kind}-{grid_id(params)}"
    assert harmonic_digests[name] == HARMONIC_DIGESTS[name]


if __name__ == "__main__":
    # run by the harmonic_digests fixture under PINNED_BLAS
    print(json.dumps({f"{k}-{grid_id(p)}": harmonic_digest(k, p) for k, p in GRID}))
