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
Spencer ranks, the harmonic sampler and the oracle went block by block.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import GRID, grid_id

from ahsnormal import build_algebra, serialize
from ahsnormal.cli import main

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
}

VERIFY_FACTS = {
    "default-grid": "a577af951ee9f29007a0fbbea160632cdb08a06a383aa030c75087834e100303",
    "lagrangian-6": "0617bcfe4fe3e2d206fd0b6f5be68e0b282c76c8d0cfb5618de7e90fa742d5ff",
    "spinorial-6": "9818ed5217d4d342e8daa51dfe481420c5768f3070f7f3b9a1114f66a4300267",
}

VERIFY_ARGS = {
    "default-grid": [],
    "lagrangian-6": ["--kind", "lagrangian", "--m", "6"],
    "spinorial-6": ["--kind", "spinorial", "--m", "6"],
}

POINTS = list(GRID) + [(kind, {"m": m}) for kind in ("lagrangian", "spinorial") for m in (7, 8)]


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
