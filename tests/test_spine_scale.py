"""The normalizer on let spines of realistic size.

A spine sort key holds the keys of the earlier lets it depends on by
reference, so a key is as long as its own scrutinee's text and memory
stays linear in the spine.  Keys that pasted those keys' text in grew 4x
every two lets of a ``CX`` chain, and brickwork 32 x 40 ran out of memory.
"""

import tracemalloc

from pstt import EqKind, judgementally_equal, normalize, print_judgement
from pstt.equality import _spine, _spine_keys

from brickwork import brickwork_chip, brickwork_judgement, chain_judgement, cx_chain_term, twin_chains_term
from test_cli import invoke

MIB = 1 << 20


def normalize_peak(j, chip):
    """``normalize`` of a judgement, and the peak traced memory it took."""
    tracemalloc.start()
    try:
        nf = normalize(j, chip)
        return nf, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cx_chains_normalize_in_linear_memory(chip0):
    for n in (40, 200):
        nf, peak = normalize_peak(chain_judgement(cx_chain_term(n), chip0), chip0)
        assert len(_spine(nf.term)[0]) == n
        assert peak < 4 * MIB, (n, peak)


def test_brickwork_normalizes_in_linear_memory():
    for n, layers, bound in ((16, 20, 4), (32, 40, 8)):
        chip = brickwork_chip(n, seed=n)
        nf, peak = normalize_peak(brickwork_judgement(chip, layers), chip)
        assert len(_spine(nf.term)[0]) == (n - 1) * layers // 2
        assert peak < bound * MIB, (n, layers, peak)


def test_brickwork_equals_its_layer_reversed_compilation():
    chip = brickwork_chip(32, seed=32)
    forward = brickwork_judgement(chip, 40)
    reverse = brickwork_judgement(chip, 40, reverse=True)
    verdict = judgementally_equal(forward.ctx, forward.term, reverse.term, forward.type, chip)
    assert verdict.kind is EqKind.EQUAL


def test_the_refuted_brickwork_pair_differs_on_q3_only():
    chip = brickwork_chip(16, seed=16)
    forward = brickwork_judgement(chip, 20)
    refuted = brickwork_judgement(chip, 20, reverse=True, refuted=True)
    verdict = judgementally_equal(forward.ctx, forward.term, refuted.term, forward.type, chip)
    assert verdict.kind is EqKind.NOT_EQUAL_SEMANTICS
    f, g = verdict.witness
    assert f.channel("q3") != g.channel("q3")
    assert [ch for ch in f.channels if ch.qubit != "q3"] == [ch for ch in g.channels if ch.qubit != "q3"]


def descent(a, b):
    """How many keys deep a comparison of keys ``a`` and ``b`` goes before the texts differ."""
    depth = 0
    while True:
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        if type(a[i]) is str:
            return depth
        a, b, depth = a[i], b[i], depth + 1


def test_twin_chains_compare_keys_300_levels_deep(chip0):
    n = 300
    nf = normalize(chain_judgement(twin_chains_term(n), chip0), chip0)
    lets, _ = _spine(nf.term)
    keys = dict(zip((node.x for node in lets), _spine_keys(lets)[0]))
    # Down the chains, then to the lets that split p's two halves.
    assert descent(keys["e"], keys["g"]) == n + 2
    assert keys["e"] < keys["g"]


def test_keys_nested_past_the_recursion_limit_are_a_resource_limit(tmp_path, chip0, chip0_path):
    # Two chains of the same qubits need two live values of each, which a
    # context naming each qubit once cannot give.  Comparing the keys of
    # their last lets nests about 1 200 comparisons deep.
    src = tmp_path / "twins.pstt"
    src.write_text(f"schedule twins {print_judgement(chain_judgement(twin_chains_term(1200), chip0))}\n")
    code, out, err = invoke("normalize", str(src), "--chip", str(chip0_path))
    assert code in (0, 1), err
    assert "MemoryError" not in err
    if code:
        assert (out, err) == ("", "error: resource limit exceeded: RecursionError\n")
