"""CLI output pinned byte for byte by sha256 digest, so that any byte that
moves has to be explained.

The digests date from the generator-closure enumeration of the groups; the
closed-form covers reproduce every one of them.  C999 is left out: the
closure drifted below the 12-decimal rounding there, and one of its
printed digits moved with the closed form (to the correctly rounded one).
The `mul` digests date from the grouping that measured every pair of
values; grouping measures only values of nearly equal |w| now.
The `verify` digests pin the sampled points, drawn from numpy Generators,
so that a change to the random stream is a visible, deliberate one.  Both
date from associativity and well-definedness pairing the raw product
values of a closed group through its table, which moved only the
`max_deviation` values of those two checks: every trial and failure
count, and every identity and inverse report, held byte for byte.  The
`--all` sweep was re-pinned once more when the inverse check measured its
raw product values instead of their canonical representatives, which
moved seven inverse `max_deviation` values in their last digit (by at
most 2.5e-32) and nothing else.
The rows of the negative-control groups are pinned the same way: those
rows decide every catch count of the controls.
"""

import hashlib

import pytest

from nvalued.axioms import corrupted_copy
from nvalued.cli import main
from nvalued.rotgroups import build_group, catalog

GENERATE_DIGESTS = {
    "C1": "e6eacee108b8803bb6999a890744cd1877f8672d1d24f56eb9219f82d1adc881",
    "C2": "06888b2f164ad2911db35d7a58fab6d1a7b4ab402dc72b8da4a6718e86ececd3",
    "C3": "bdf9664712de5cea154afd200f1574ac5ada21707b11d92a12f147ac1ede1900",
    "C4": "77622abac3fca3b13147e6f1634503ccb289ed9d498d8e15cf7c9053a2676711",
    "C5": "2a18597e0351fae13b411bfc766ebf712f1d9db27faa128fc176f55b9e2ac569",
    "C6": "978e7d3572a74c24280ba31292aa81a5e134ad14f530ba9e7190af433f45ac45",
    "C7": "da1b321433682bdf81f427b189a2ba4fcf6a007a28799e81e8a4a29a86b87589",
    "C8": "922bafc686ae18d97c2bf69ccb9aa44ea8bbd8e4c21acac3a58cd49ae7b46816",
    "D1": "45593954b240fb9fe1e0d9c833db47a4c00b8dd5d013ef8517748cf2044cb24c",
    "D2": "072457526d17c3c57c514908e5c4450fbbb7ce1a1aa80adafc50512b2d880472",
    "D3": "17da622f4ca1eb378fd2b6a47b763699c80cb9bdf8af53bdc8be41a250090811",
    "D4": "a5e7b79b2cca1754d3e99c9bd82280f15b1438afeff9e8755d114bd50f903c3d",
    "D5": "8d85c1d302e03678197679215d899cb3234a98bbbed9a1af19b8b6d735836a1f",
    "D6": "6885d21ae5b14f9bbdce59a97a1fd7ae0ae9c30670cedc872ffd4ce47aa35e79",
    "T": "1d6f7833e73b1e6af2d8e3762dfa7b5023b4a1971d9a1fa2e41b1b61ed39e163",
    "O": "10c4839676ad14f4887fd3f8f21c2f04ed9baf3ea340873bfe12cf3f0837db29",
    "I": "292dc932ef3dc14ca010bb4eaaf92c48df0e68303d956b6575a4a663d349f9d1",
    "C17": "fa30b6176aadf18f471470953fb09326c10ae2a0e376f6f7383437355f9a8709",
    "C45": "38d25c2d40de74ad8b531c75bdfaef30adc70ec16c154a548a4fa1d83b5b7546",
    "C64": "75498bf9d24a903caa370251d75cfbb2eeb8bc5839cbabc6a53c5fbd9b82ad7e",
    "C89": "b5de9803aced6469c2df3f8ba5e0d5b2df67602d738c4da7c277a50ca7e6ae2b",
    "C96": "6c836adda7f9924fff2c57a60327af0513d1a4bdabb9e6352345aa964279ac7b",
    "D18": "eb238f42769e29d47fcc677a5a02b85e22f069eb2fce5103ae30a6a281a092d6",
    "D36": "f3bb520ed1d2c352230122cd6a810e5d3caae6c0378d6c65df56dddbbf3fb082",
    "D54": "7dec2758757d9dc8ab8a54192a45c3041ddfb7ab6c55c444269f4d14a80b08a5",
    "C1000": "dc98f977afe1651d20137b9cc97d0937e44e7ac2887617ad1e92fb7e63b04f8a",
    "D500": "526df113648e48c9046fc5270e8e40b50598ae3432b4e1ebe15334fe1c468a0f",
}

CLASSIFY_DIGESTS = {
    "sp1": "41448580baabc0092d3abfb619ba9fad78a7a3236770ed7a6f02703577ac9c07",
    "so3": "00533852a2bcfc007e130ed5e0b96e62fa0ce192854e75a0933e4f8e45f5aa30",
}

# `mul` on the largest groups at one point pair, and the README example.
PAIR = ["0.6,0.8,0,0", "0,0,0.6,0.8"]
MUL_DIGESTS = {
    ("I", "so3", *PAIR): (
        "faa8710e945b80b179b51bf66a70e8233c3deaa3944adb37709af42521817f99",
        "24b22adc1780b648c7dc198753afa909b925ddf460c50f4bbf7125ce5c887e0b",
    ),
    ("D500", "sp1", *PAIR): (
        "88a3598e08b4da9725681776b9fc75f5fea47f65c47b60832e3773ed0ddb6b66",
        "f0d7c700f94438be0a247e8810c1a9b3dd554a34f6671bcffa8dbda509991a5c",
    ),
    ("C1000", "so3", *PAIR): (
        "23828f3c69b4750ecb2666e8547239d122fef1c705914a9ef8825b769c05b476",
        "80e443d361aa5495a219dd88963031e55b7e024626cc996bbaeba0df3b27b5f6",
    ),
    ("C2", "sp1", "0,1,0,0", "0,0,1,0"): (
        "5881acf35eca923b238589798520a95355545fa9775a9c0d70ef4003fda3c52a",
        "8f4b11d15c8e4df593e4779b1475d431f9c08b6826980aec755c87f11c867e97",
    ),
}

# A reduced `verify --all` sweep, and the README's `verify C2` example.
VERIFY_DIGESTS = {
    "--all --json --seed 0 --samples 10 --triples 1": (
        "6a4ffafb1afe77337dcc53b7af7f750856a4d14d136e96e026a8385236e64496"
    ),
    "C2 --base so3 --samples 50 --triples 10": (
        "1fa31110ea7475cc1a767cc37f0a04eefec2d6a3dbd1e0428cf07fe9add0ad40"
    ),
}


def digest(argv, capsys) -> str:
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("label", GENERATE_DIGESTS)
def test_generate_json_is_unchanged(label, capsys):
    assert digest(["generate", label, "--json"], capsys) == GENERATE_DIGESTS[label]


@pytest.mark.parametrize("base", CLASSIFY_DIGESTS)
def test_classify_all_json_is_unchanged(base, capsys):
    argv = ["classify", "--all", "--json", "--base", base]
    assert digest(argv, capsys) == CLASSIFY_DIGESTS[base]


@pytest.mark.parametrize("case", MUL_DIGESTS, ids=lambda c: f"{c[0]}@{c[1]}")
def test_mul_text_and_json_are_unchanged(case, capsys):
    label, base, a, b = case
    argv = ["mul", label, "--base", base, a, b]
    text, as_json = MUL_DIGESTS[case]
    assert digest(argv, capsys) == text
    assert digest(argv + ["--json"], capsys) == as_json


@pytest.mark.parametrize("args", VERIFY_DIGESTS)
def test_verify_samples_are_unchanged(args, capsys):
    assert digest(["verify", *args.split()], capsys) == VERIFY_DIGESTS[args]


# `element_rows` of corrupted_copy(g, angle) for each catalog group g of
# order >= 2 in catalog order, the angles in this order within each group.
CORRUPTION_ANGLES = (0.1, 1e-5, 1e-7, 1e-9)
CORRUPTED_ROWS_DIGEST = (
    "f329ea1e92b9e8450cc736649b94954451d32bfdf24e6eeeafcfdcc9263a7379"
)


def test_corrupted_rows_are_unchanged():
    rows = hashlib.sha256()
    for spec in catalog():
        group = build_group(spec)
        if len(group) < 2:
            continue
        for angle in CORRUPTION_ANGLES:
            rows.update(corrupted_copy(group, angle).element_rows.tobytes())
    assert rows.hexdigest() == CORRUPTED_ROWS_DIGEST
