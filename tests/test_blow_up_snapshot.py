"""Pinned digests of `blow_up` on a seeded set.

Each case blows up a standard schedule and hashes the new map and the
new motion, both through `jsonio`, with the blow-up report.  The cases
are the 50 of acceptance criterion 8 and lifted family-B schedules with
m = 1 and m = 2.  A change to the stop events, the rerouting of a car or
the retry loop that moves any of these bytes fails here.  The digests
were recorded before the blow-up read its stops and passes off the car
index.
"""

import hashlib
import json

import pytest

from spheremotion import jsonio
from spheremotion.fuzzing import (
    doubled_polygon,
    make_rng,
    random_shape_map,
    relabel_map,
    rotate_map,
)
from spheremotion.motion import blow_up, standard_motion, standard_multiple_motion
from spheremotion.surface import b_profile, classify_map


def criterion_8_cases():
    """The maps of `test_criterion_08_blow_up`, built the same way."""
    rng = make_rng(8)
    cases = [random_shape_map(rng, "A") for _ in range(40)]
    cases += [
        relabel_map(rotate_map(doubled_polygon(b_profile(mval)), rng), rng)
        for mval in (1, 2)
        for _ in range(5)
    ]
    return {f"criterion-8/{i:02d}": (m, standard_motion(m)) for i, m in enumerate(cases)}


def lifted_cases():
    rng = make_rng(12)
    out = {}
    for mval in (1, 2):
        for i in range(3):
            m = random_shape_map(rng, "B")
            out[f"lifted-m{mval}/{i}"] = (
                m, standard_multiple_motion(m, dict(classify_map(m), m=mval))
            )
    return out


CASES = {**criterion_8_cases(), **lifted_cases()}

DIGESTS = {
    "criterion-8/00": "17aae8f031f5268ce6ee996288bb47414388bf2249a1aba0e753fa291d6e4ce9",
    "criterion-8/01": "038e7b154a097961871b6c877538f689bf2dc8cb4fb810a4fe0ef788390c7ba9",
    "criterion-8/02": "900bfe4a52504f8a9c70391e0ffbdb4f338b82f8cf69ca689180565a1a8c78fb",
    "criterion-8/03": "6adb184eb3cb188bc36975886c068030e26e654f476af392ae8e3e9cf1e88f2e",
    "criterion-8/04": "6eff4d46b6219f97302f0832c4ebd5625c8f2fe743c2a1646b5597080f1b5928",
    "criterion-8/05": "ee7f4a694b6ee352f57d193c0ac07581d4d04a54c924e7b435211ae27fb5baa9",
    "criterion-8/06": "0866286702f4ac269b7c5b1a68f861892fc92ad8af5f3693ccd0b6d1b8c15bf0",
    "criterion-8/07": "bb3c38f36eaddd7c66ccaa85d4c45ed4d0195c852bf56b0350e8fc91623e22ce",
    "criterion-8/08": "a8f61908ae3f61f1ff8ea707162ea14e43832ad44e5f6577b852f7d0b581b22a",
    "criterion-8/09": "f67ae70ad4940db87b20048120ff7d5c00e86dacb2e2c0ed27d2702b3e6ac66b",
    "criterion-8/10": "900bfe4a52504f8a9c70391e0ffbdb4f338b82f8cf69ca689180565a1a8c78fb",
    "criterion-8/11": "ee2a6e3b9225319a9a9ee7f2433e4f12375e444f70c46e228b1e237b4ab032d4",
    "criterion-8/12": "c47a834a5d105df7dcabec10599d00d992348af52af457518066abf724e37e1c",
    "criterion-8/13": "03296553cf6c7cd17abd6d99ca536be7905d76fd44540a0fed1e57f29209d3e2",
    "criterion-8/14": "a1cc2dee22b20e1227e7dc58bc41ac2cd7d1f5f2799b3eaa8857291e0845acba",
    "criterion-8/15": "88cbced6b94c6c93928e457aae54d343daa267fe4934181fd9d87032d562779c",
    "criterion-8/16": "d2c5e773823e4b2649c7dd1398af0372461418c4ec9846cda2f22d5abf24e66e",
    "criterion-8/17": "80b61f89f9b1e5d6dbb3e2555ba06bc0bb314afd48e635e56ef6bc747fe030a0",
    "criterion-8/18": "88cbced6b94c6c93928e457aae54d343daa267fe4934181fd9d87032d562779c",
    "criterion-8/19": "ab76057b1a94c328e63c82f12c691db5b61767da16c2a71e064ffa2d3af0cdbf",
    "criterion-8/20": "4f5f30a1df9c4059f4700df1c763add3f2e375bc67a61f14db58f4a740af6535",
    "criterion-8/21": "f6778bfb87d5f7dc6a1a2cf148b3366074eee5cece432f12f915e2827f7ece16",
    "criterion-8/22": "1c23b456e7a761528f2a655ccac87b364796f679e3637309f2b6e07ba3af2f23",
    "criterion-8/23": "f67ae70ad4940db87b20048120ff7d5c00e86dacb2e2c0ed27d2702b3e6ac66b",
    "criterion-8/24": "e16cf9c37a2f58b49e8bb2498827cf7742ea21e264a6148cff9fd592e46930a7",
    "criterion-8/25": "88cbced6b94c6c93928e457aae54d343daa267fe4934181fd9d87032d562779c",
    "criterion-8/26": "f5a758389f2596f36bb0de286b9ebc0e32bf1c3723584aa656f6db102c66d375",
    "criterion-8/27": "7aa87021b17e85d5ed62c0e0ad8d5d8c1fe9395b4daaf679eb054f4997dacc4b",
    "criterion-8/28": "1c3ca3a19ab9f68bb8c5fd43232211a7ad08eaadeeac53b5110b4cb69c7c7c58",
    "criterion-8/29": "295feb29f9f2c4203773b5eae2d81f66578b7ea18f407122d19dde2cde2e86c5",
    "criterion-8/30": "acd56de83dda59a8ad3bc74ba22390f7fe666628f6bdef18328be1154750c1ee",
    "criterion-8/31": "fb74a7f32b942f65c5efb2b6cf8293122df538e4e0d73575cd6d45fc2570259e",
    "criterion-8/32": "183f45700fa2cbbb7a9a0631e785ac424b1352c4bf3607460bdc91e3e72991a7",
    "criterion-8/33": "6f3f5d1eb488b6fa0aa1f33d78020354f77bf81eeb8c7858843511f9023d53a4",
    "criterion-8/34": "1c3ca3a19ab9f68bb8c5fd43232211a7ad08eaadeeac53b5110b4cb69c7c7c58",
    "criterion-8/35": "73611f729c2f9ce2d396e44d8a2ea1905784a55573fef58b40e4350b958dd18f",
    "criterion-8/36": "c902a996f879b0b85995d82b3861036ab9e823981d035fe486af457009ce1ad8",
    "criterion-8/37": "f02f78b006a9a6413457be560ca30deabb9fcd64ca374292c4ec95af12163ab2",
    "criterion-8/38": "aa8be24cd5d95b536a711492d1d93a42d3ac8c366130a932d8a4ac5254a43856",
    "criterion-8/39": "6c2ac8ce29118c6cd222c0ad549e5aa526147936335c221df33a497c738e80af",
    "criterion-8/40": "3e4385c05acf8ee36a1b38a0f4976083f769799010fd3996ec23e0c943507abf",
    "criterion-8/41": "a528ae5ee74f6492bdf491470f6c46462bed30ef7403c5b49d49b00bac6d3e20",
    "criterion-8/42": "8214b112af41049c9d3ef70655a68ee8538f1188498870e6077b50feff8e373c",
    "criterion-8/43": "d8b47b9ea6fb7758c2cfd00f81b2a6c7c1a9a495b983a292a6104d42a2f73ec7",
    "criterion-8/44": "f65d10d1931754e8a5d49526417085b44faef4377dfbeaea80ddeb3ddbb7cfb9",
    "criterion-8/45": "e32eecc2229f73c396a2b669616d807c9179e3619ff1ce8ac60e3be7d2a88df3",
    "criterion-8/46": "39530df10b1ed2f578dc7ae3ef5aae7abfef118ef00a7f1600396fb523baf259",
    "criterion-8/47": "790404ccc11276a7ff31b5d019e1b21576766ba6449ad1bf54dc962d84b0a93a",
    "criterion-8/48": "2af83efa28c1d4528ca8ed2ca65fd8564149ccc8651d210f15b38fe80e31b862",
    "criterion-8/49": "1ce78121d903a80b09fa18885c9136118712ba6370ae4d1933e8faebb80638ab",
    "lifted-m1/0": "7033916230c9c16f7762479fba3d15510302f43eb46aa36dcadea110f752a048",
    "lifted-m1/1": "b977b390cd8541079d173a77e302661c3f869bcadd0e067c9771c4f6584848c5",
    "lifted-m1/2": "7b026ce8b83a4f3c21d96043cbd1078741712aae7624e2a04cfd82dbcf100c1e",
    "lifted-m2/0": "6b0343f5d9ad090e6eb97c7fc8aa9cd8c0723a2569c3348a04b37f3c6836c326",
    "lifted-m2/1": "6aed5f39b90679d7058580ce739d855e991ef5a012bc20f69e92037f3dd89651",
    "lifted-m2/2": "692407c84d46515bc6cb704e595eef67183a6fb2716693c9698453b046de547f",
}


def blow_up_digest(m, ms):
    m2, ms2, report = blow_up(m, ms)
    doc = {
        "map": jsonio.map_to_json(m2),
        "motion": jsonio.motion_to_json(m2, ms2),
        "report": report,
    }
    text = json.dumps(doc, sort_keys=True, default=jsonio.frac_to_str)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_blow_up_matches_pinned_digest(name):
    assert blow_up_digest(*CASES[name]) == DIGESTS[name]


def test_snapshot_covers_stops():
    # most family-A draws have no stops; the snapshot must hold some that do
    with_stops = [name for name, (_, ms) in CASES.items() if ms.stop_corners]
    assert len(with_stops) >= 16
    assert {name.split("/")[0] for name in with_stops} == {
        "criterion-8", "lifted-m1", "lifted-m2"
    }
