import random

import fbblat
import pytest
import workloads


@pytest.mark.parametrize("cls", [workloads.Roundtrip, workloads.Wide])
def test_generators_are_seeded_and_unisolated(cls):
    def masks(seed):
        inputs = cls().inputs(random.Random(seed))
        if cls is workloads.Roundtrip:
            return [(g.n, g.mask) for g in inputs]
        return [(n, mask) for n, _, mask, _ in inputs]

    first = masks(5)
    assert first == masks(5)
    assert first != masks(6)
    for n, mask in first:
        assert not fbblat.has_isolated_vertex(fbblat.LabeledGraph.from_mask(n, mask))


def test_wide_blocks_have_their_slot_size():
    inputs = workloads.Wide().inputs(random.Random(1))
    want = [(n, q) for n, q, blocks in workloads.Wide.SLOTS for _ in range(blocks)]
    want += [(n, n * (n - 1) // 2) for n in workloads.Wide.COMPLETE]
    assert [(n, q) for n, q, _, _ in inputs] == want
    for n, q, mask, _ in inputs:
        assert mask.bit_count() == q


def test_triangle_reference_matches_the_oracle():
    ref = workloads.unisolated_counts(9)
    for (n, q), value in ref.items():
        assert value == fbblat.count_d_oracle(n, q)
    assert len(ref) == sum(len(fbblat.CountTable.build("d", 9).rows()[n])
                           for n in range(10))


def test_checks_reject_wrong_outputs():
    rt = workloads.Roundtrip()
    g = rt.inputs(random.Random(1))[0]
    out = rt.op(g)
    assert rt.check(g, out) is None
    assert rt.check(g, out[:5] + (out[5] + 1,) + out[6:]) is not None

    en = workloads.Enumerate()
    en.inputs(random.Random(1))
    masks = en.op(4)
    assert en.check(4, masks) is None
    masks[1] = masks[0]
    assert "repeated" in en.check(4, masks)
