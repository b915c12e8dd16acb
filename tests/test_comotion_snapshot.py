"""Pinned digests of `spheremotion comotion` reports on a seeded set.

Each case writes a map and a comotion, runs the command in-process and
hashes the report's `results`, `checks` and `ok`.  A change to the
comotion solver, the weight report or the collision report that moves
any of these bytes fails here.  The digests were recorded before the
weight report and subdivision moved to integer corner ticks.
"""

import hashlib
import json

import pytest

from spheremotion import jsonio
from spheremotion.cli import main
from spheremotion.fuzzing import (
    make_rng,
    random_comotion,
    random_sphere_map,
    random_subdivisions,
    random_torus_map,
)
from spheremotion.goldens import genus_map
from test_comotion_oracle import coprime_pinwheel, rational_period, subdivided


def on(make_map):
    def build(rng):
        m = random_subdivisions(make_map(rng), rng, rng.randint(0, 4))
        return m, random_comotion(m, rng)

    return build


BUILDERS = {
    "sphere": on(random_sphere_map),
    "torus": on(random_torus_map),
    "genus-2": on(lambda rng: genus_map(2)),
    "genus-3": on(lambda rng: genus_map(3)),
    "subdivided": subdivided,
    "coprime-pinwheel": coprime_pinwheel,
    "rational-period": rational_period,
}

SEEDS = (1, 2, 3)

DIGESTS = {
    "coprime-pinwheel/1": "1b3449ea9001fa197008412c1490ef8ca14879d015b1d4ccf359480b01714262",
    "coprime-pinwheel/2": "5b2fd4929cbf7bee97c0decfc55a416d5128848674ee3ba2b7ac3fb8b31a509b",
    "coprime-pinwheel/3": "eb4630476143634f2e4d9c62439c6a691258c82bbcda604e95388d5b7442de31",
    "genus-2/1": "fd52e80fea22a6727b8b8e3924c302179133369253cdf2b2976b51e4ca440fb0",
    "genus-2/2": "fb227b5133d5e195d94797b651371ee9252a2a2ed9d38be30b261a56b964b445",
    "genus-2/3": "7e9c4d77175a238b1db40b373e3a48b41564c4997124f0a135b7ab5b8128c9b2",
    "genus-3/1": "766e7fa4d84b54dd390e631c0b1c4a4d9b800e5c9532efc83213b9aa98596698",
    "genus-3/2": "0a3a80b9795e326540892fa43bcab1cc741664be35ad7fc02e93516bf1a75fc5",
    "genus-3/3": "6ab2d1f67fb68f5568f1d8ccb12a1c2bdfc698a55a3a3f11bbd81e1b6f467831",
    "rational-period/1": "d31ac09cfde84656679e59cca8fb5bebaf80749f3ea2ec1c02d15a1d6914e727",
    "rational-period/2": "687268960d0f9bfbc7e5457cd1c3fe7834c7e8fa9293e1be7a65dbdfe2fd378e",
    "rational-period/3": "2fbb70e678ec9dd8fa5d6af59771eb6c1a6882dd37b77ebc9120065df7b036e8",
    "sphere/1": "77b776be49e2863b7cdc12a1695b54f037bc455db93a18e6dfccea82b6869f99",
    "sphere/2": "f3582fefb9094f10bdeaff27564b0544bbd1d6d812eb5f5f3ea34e4eccdc7161",
    "sphere/3": "2651eab22d1d932f2d3a9dc92b8e3e3d4563d255ba67196f30fbdab123697ab2",
    "subdivided/1": "d537e2be91fb823f16acbd1bce4c9649b08ddb9dad0026e496532377b5d334c6",
    "subdivided/2": "bab1ce9ca0d07e11352de13b91b785b26022a2880b34c29b17032f3ae45c764e",
    "subdivided/3": "2b5a54b40a12604ff8bb006dfc65b62ff5e86ebce4a2a6501c84ed3811c8ac45",
    "torus/1": "d1c9516e9f5bc7de17ba4da10b9cc140b7b41d183615181e7d4060e9584365ec",
    "torus/2": "3fb492905425c7107b5fbd9c30daf512e6e8e30a24a8fa0891e49ffe46e50a27",
    "torus/3": "510d5c29306b16d8203d8dbb3e76043a889e8ffc7b74dda895e9ff3f9e131a56",
}


def report_digest(tmp_path, capsys, build, seed):
    m, com = build(make_rng(seed))
    map_path, com_path = tmp_path / "map.json", tmp_path / "comotion.json"
    map_path.write_text(jsonio.dumps(jsonio.map_to_json(m)))
    com_path.write_text(jsonio.dumps(jsonio.comotion_to_json(m, com)))
    code = main(["comotion", str(map_path), str(com_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["ok"] else 1)
    pinned = {key: report[key] for key in ("results", "checks", "ok")}
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_comotion_reports_match_pinned_digests(tmp_path, capsys, name, seed):
    got = report_digest(tmp_path, capsys, BUILDERS[name], seed)
    assert got == DIGESTS[f"{name}/{seed}"]
