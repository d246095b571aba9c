"""Byte-level pins on compiler and QRAM builder output.

Each digest is the sha256 of the circuit JSON (``circuit_to_dict`` through
``json.dumps``) computed before the compiler and builder were refactored;
any change to the gates emitted, their order or their wires changes it.
The QRAM builds for n >= 2 were pinned again when each Toffoli became one
ccx gate; their first pins, taken when it was h, ccz, h, still hold with
every ccx expanded back into that form.
"""

import hashlib
import json

import numpy as np
import pytest

from swapnet.circuit import Circuit, CouplingMap, circuit_to_dict
from swapnet.compiler import (
    compile_cnot_baseline,
    compile_ext1,
    compile_ext2,
    compile_iscz,
    unfuse_iscz,
)
from swapnet.netbench import random_permutation, route_linear
from swapnet.qram import QramSpec, build_qram_circuit

SEEDS = (0, 1, 2)


def _digest(circuits) -> str:
    return _doc_digest(circuit_to_dict(c) for c in circuits)


def _doc_digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc).encode())
    return h.hexdigest()


def _paths(n: int):
    for seed in SEEDS:
        rng = np.random.default_rng([seed, n])
        yield route_linear(random_permutation(n, rng))


COMPILERS = {
    "iscz": lambda p: compile_iscz(p).circuit,
    "unfused": lambda p: unfuse_iscz(compile_iscz(p).circuit),
    "cnot": compile_cnot_baseline,
    "ext1": lambda p: compile_ext1(p, {0, p.n_wires // 2}).circuit,
    "ext2_earliest": lambda p: compile_ext2(p, CouplingMap.line(p.n_wires), "earliest").circuit,
    "ext2_latest": lambda p: compile_ext2(p, CouplingMap.line(p.n_wires), "latest").circuit,
}

COMPILE_DIGESTS = {
    ("iscz", 5): "f6c365d048a1c7d074061efd8d9adea360959e9b536c809c4d88587beb4d8f6c",
    ("iscz", 8): "dd6b4c575e86f5d24b5b42d980b6cb452e43554bd0e409832bc70eccf9a4d6de",
    ("iscz", 12): "d44fbf88ac877289ef6b78d0001e70d7ec1dab0204f916e7fb81b92c4cadd4a4",
    ("unfused", 5): "9b1723cec8616277c0b8462759cf956e57b950a0cc7f2f94cbed0690054d25fc",
    ("unfused", 8): "ce750ee3c3d29e111ea70e3d633a4ae207dc81585dd54cecdd7d0f030e122bab",
    ("unfused", 12): "33e73a86650519b06e325ba23a793287a9398bf1bbff419891d4465b1fdf0aa9",
    ("cnot", 5): "3a43d0ecd90796e7bf337908af9e577478ad6886e6e46186c88514c4ed467782",
    ("cnot", 8): "0ab3997bc53fe5bc13689dee41ba4c458e1f962bc847960f660629f3f057a73b",
    ("cnot", 12): "c2107e8ebd7620f045cb439b37104bc2b63fdbf64d014e055b6d42244b5cb0c5",
    ("ext1", 5): "73e1791e38aacd7dc52d34ccb6fb738b885a45333cf1a757e4177bf4d3bb9f84",
    ("ext1", 8): "902af54609a7e8b7b2d5131d274c73b37ab47421c186a64a17585690d814dba5",
    ("ext1", 12): "2062edfa506878434124b604ec4e27b2239d2969bb7396b6f8304113d26d6033",
    ("ext2_earliest", 5): "ad7b3347cda978f1efd03b12fb14ac0db7961088476c76c239f80f28b3c1fda2",
    ("ext2_earliest", 8): "29454531c1c60157979113accdf99d7795921d0a17a691c348892612de960cbe",
    ("ext2_earliest", 12): "76558b3af0bd017951cc42ff9213bd9680348b3ad24d3340c6ed690b343c14a3",
    ("ext2_latest", 5): "b7b3a299caeca507efb4e4a542a66f582d0f45bf389a8f91b4d8a772291f56fd",
    ("ext2_latest", 8): "67301395c57139a2128684d8f9f21238018255828002577c504ca6c8b2f90196",
    ("ext2_latest", 12): "f8bf64e0291023eeac76da303a0911bdd123207cbfd6af33d10f73c84a95e32d",
}


@pytest.mark.parametrize("mode, n", sorted(COMPILE_DIGESTS))
def test_compiler_output_is_pinned(mode, n):
    assert _digest(COMPILERS[mode](p) for p in _paths(n)) == COMPILE_DIGESTS[mode, n]


QRAM_DIGESTS = {
    (1, 1, False, False): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (1, 1, False, True): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (1, 1, True, False): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (1, 1, True, True): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (2, 2, False, False): "4c0b5296d54f15b7c4e75a54ba935a45e13011fb3038ab626ee2924d1b9091b1",
    (2, 2, False, True): "331c8bfc6e59b243c902c7a3ca9247b0e25fc397582ee99c8dfdb60726bb8085",
    (2, 2, True, False): "0b01e56cf216e2e288801fe22d200ca13e61bf43d222f942eb2cecae737d77fb",
    (2, 2, True, True): "0a9ef6cd7e07168a056a26d624639fa4e02ef13de388f63b5b42e89893cbaca0",
    (3, 2, False, False): "3ad0687ab1324888d170d483e0aecb8008e7b62a1030060044d27e67dda9628c",
    (3, 2, False, True): "8f16da2eb1fce7bdda2e701329b56fff91b520f7207d0d73ee00025532936024",
    (3, 2, True, False): "80ae754380a43ceba307d0cd3a00eb243ba901ddbf33ce800f0eb7918b7327f3",
    (3, 2, True, True): "b3bc878b87cb5ff7a5d1d0fc63ccdac96a0d88b8aeab67f9fc7790688e9e304d",
    (2, 4, False, False): "2fdb33c9ff2fb1f38bb928b4d9c073c1dc86e5501afaf8faa2be8fa3c63a7d6f",
    (2, 4, False, True): "2f47825b6dd2d45b03387bd22a0254ab0a2e908686f5242dbd87fc651ee49238",
    (2, 4, True, False): "bd80f98a4ea2b1ba5a5eee3224bb7ec0bc98d0aa98db12e8f1586ab59542cf79",
    (2, 4, True, True): "489b62da61ac5cbabe79f7c8e2f9a7fc598ddf585eecaeef8ecefc1cf337d759",
}

# the first pins, with every Toffoli written as h, ccz, h on its target
QRAM_HCCZH_DIGESTS = {
    (1, 1, False, False): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (1, 1, False, True): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (1, 1, True, False): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (1, 1, True, True): "46126cdd744a75f35c97d7ba82de84d3f67a0e8063a01a2a161bad1d947fbd9a",
    (2, 2, False, False): "c3c8b55ec610e24b055ab59ea3826ccd25ad87e63a1929d41b8228182979e014",
    (2, 2, False, True): "e22cf230bf925ad5fc01d541c37b39abbd7b59fb74e6e3d9682b3e4a3c0dd888",
    (2, 2, True, False): "091dbc07b473ec2acdced823c3bf57009e7d68ed1a857bb84bab901df207198f",
    (2, 2, True, True): "d0bd30c1c5899b964d2d0908872b79b4f4dd47d75bee86c15f577427dc2b180f",
    (3, 2, False, False): "1074403602d61d3b6ce712c56d6d8a23815c86d61df2d860e7d53d2a770d1923",
    (3, 2, False, True): "8844e151593419ded1c3846bcea0d9aea427bd4e0f651cfa510568c4fe3e48ce",
    (3, 2, True, False): "ab18431f689efcf7234d43bb7fa88b9ca7f393212c293f1704c4939d23cfc6f3",
    (3, 2, True, True): "fd54d322501b0e832a09c459e0fc749dfc8429f22e4e95ff90d2f0bfebdfce6f",
    (2, 4, False, False): "46b60f9e8202fe65ac3443b96a98472abab526763a5c561b886acee31ff73b68",
    (2, 4, False, True): "9360ab20c86d6440a7b4683e6e4a11c4e92c912f6242d5857d4588b66f9671bf",
    (2, 4, True, False): "55d5241e0d86898b029e52ac53a5bd42e8421b2e0b003fde9266161fc3c4fdc5",
    (2, 4, True, True): "62221054c1c1a04b9d60426169414ce83e2670ef206f442f2a9d8804d7b14f60",
}


def _qram_circuit(n, k, extensions, pipeline) -> Circuit:
    rng = np.random.default_rng([n, k])
    memory = tuple(int(v) for v in rng.integers(0, 2**k, size=2**n))
    return build_qram_circuit(QramSpec(n, k, memory, extensions, pipeline)).circuit


@pytest.mark.parametrize("n, k, extensions, pipeline", sorted(QRAM_DIGESTS))
def test_qram_build_output_is_pinned(n, k, extensions, pipeline):
    circuit = _qram_circuit(n, k, extensions, pipeline)
    assert _digest([circuit]) == QRAM_DIGESTS[n, k, extensions, pipeline]


@pytest.mark.parametrize("n, k, extensions, pipeline", sorted(QRAM_HCCZH_DIGESTS))
def test_qram_build_with_each_ccx_expanded_matches_its_first_pin(n, k, extensions, pipeline):
    # so nothing in the builder moved but the form of the Toffoli; h is no
    # kind any more, so the old form is built as a document
    doc = circuit_to_dict(_qram_circuit(n, k, extensions, pipeline))
    expanded = []
    for g in doc["gates"]:
        if g["kind"] == "ccx":
            h = {"kind": "h", "wires": g["wires"][2:]}
            expanded += [h, {"kind": "ccz", "wires": g["wires"]}, h]
        else:
            expanded.append(g)
    assert _doc_digest([{**doc, "gates": expanded}]) == QRAM_HCCZH_DIGESTS[n, k, extensions, pipeline]
