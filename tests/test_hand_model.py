import numpy as np
import pytest

from dexretarget.errors import ConfigError, InvalidArgumentError
from dexretarget.geometry import RigidTransform, Rotation
from dexretarget.hand_model import (
    FingerMapping,
    HandFrame,
    HandTrajectory,
    TaxonomyClass,
    TaxonomyWeightTable,
    VectorPair,
    VectorSpec,
    compute_hand_scale,
    default_vector_spec,
    proximal_index,
    reference_vectors,
    taxonomy_weights,
    tip_index,
)
from dexretarget.robot_model import link_origins
from dexretarget.synthetic import canonical_hand_joints


def flat_hand(offset=(0.0, 0.0, 0.0), rotation=None):
    joints = canonical_hand_joints(0.0)
    rot = Rotation.identity() if rotation is None else rotation
    joints = rot.apply(joints) + np.asarray(offset, dtype=float)
    return HandFrame(joints=joints, wrist_pose=RigidTransform(rot, joints[0]))


class TestHandFrame:
    def test_wrong_joint_count(self):
        with pytest.raises(InvalidArgumentError):
            HandFrame(joints=np.zeros((20, 3)),
                      wrist_pose=RigidTransform.identity())

    def test_wrist_must_coincide(self):
        joints = canonical_hand_joints(0.0) + np.array([1.0, 0.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            HandFrame(joints=joints, wrist_pose=RigidTransform.identity())

    def test_confidence_range(self):
        joints = canonical_hand_joints(0.0)
        with pytest.raises(InvalidArgumentError):
            HandFrame(joints=joints, wrist_pose=RigidTransform.identity(),
                      confidence=1.5)

    def test_transformed_consistency(self, rng):
        hand = flat_hand(offset=(0.1, 0.0, 0.4))
        corr = RigidTransform(Rotation.from_axis_angle([0, 1, 0], 0.3),
                              np.array([0.01, -0.02, 0.005]))
        out = hand.transformed(1.2, corr)
        # joint 0 still coincides with the wrist translation (validated inside)
        np.testing.assert_allclose(out.joints[0], out.wrist_pose.translation, atol=1e-12)
        np.testing.assert_allclose(out.joints, 1.2 * corr.apply(hand.joints), atol=1e-12)


class TestHandTrajectory:
    def test_indices_strictly_increasing(self):
        a = flat_hand()
        b = HandFrame(joints=a.joints, wrist_pose=a.wrist_pose, frame_index=0)
        with pytest.raises(InvalidArgumentError):
            HandTrajectory(frames=[a, b])


class TestFingerMapping:
    def test_injective(self):
        with pytest.raises(InvalidArgumentError):
            FingerMapping({"thumb": "tip_a", "index": "tip_a"})

    def test_unknown_digit(self):
        with pytest.raises(InvalidArgumentError):
            FingerMapping({"pollex": "tip_a"})

    def test_validate_against_model(self, hand16, mapping16):
        mapping16.validate_against(hand16)
        bad = FingerMapping({"thumb": "no_such_link"})
        with pytest.raises(InvalidArgumentError):
            bad.validate_against(hand16)


class TestTaxonomy:
    def test_twelve_classes(self):
        assert len(TaxonomyClass) == 12

    def test_from_name_error_lists_valid(self):
        with pytest.raises(ConfigError) as err:
            TaxonomyClass.from_name("super-grip")
        msg = str(err.value)
        assert "medium-wrap" in msg and "lateral-tripod" in msg

    def test_default_table_covers_all(self):
        table = TaxonomyWeightTable.default()
        assert set(table.table) == set(TaxonomyClass)

    def test_medium_wrap_enclosure_over_thumb_pair(self):
        table = TaxonomyWeightTable.default()
        assert table.weight(TaxonomyClass.MEDIUM_WRAP, "enclosure") > \
            table.weight(TaxonomyClass.MEDIUM_WRAP, "thumb-pair")

    def test_lateral_tripod_upweights_thumb_pairs(self):
        table = TaxonomyWeightTable.default()
        assert table.weight(TaxonomyClass.LATERAL_TRIPOD, "thumb-pair") > \
            table.weight(TaxonomyClass.LATERAL_TRIPOD, "wrist-to-tip")

    def test_missing_group_rejected(self):
        with pytest.raises(ConfigError):
            TaxonomyWeightTable({c.value: {"wrist-to-tip": 1.0} for c in TaxonomyClass})

    def test_missing_class_rejected(self):
        rows = {c.value: {g: 1.0 for g in
                          ("wrist-to-tip", "thumb-pair", "inter-finger", "enclosure")}
                for c in list(TaxonomyClass)[:5]}
        with pytest.raises(ConfigError):
            TaxonomyWeightTable(rows)


class TestVectorSpec:
    def test_default_spec_structure(self, spec16):
        groups = [p.group for p in spec16.pairs]
        assert groups.count("wrist-to-tip") == 4
        assert groups.count("thumb-pair") == 3
        assert groups.count("inter-finger") == 1
        assert groups.count("enclosure") == 4
        assert spec16.n_vec == 12

    def test_keypoint_range_validated(self):
        with pytest.raises(InvalidArgumentError):
            VectorPair(human=(0, 25), robot=("a", "b"), group="wrist-to-tip")

    def test_validate_against_model(self, hand16, spec16):
        spec16.validate_against(hand16)
        bad = VectorSpec([VectorPair(human=(0, 4), robot=("palm", "ghost"),
                                     group="wrist-to-tip")])
        with pytest.raises(InvalidArgumentError):
            bad.validate_against(hand16)

    def test_empty_spec_rejected(self):
        with pytest.raises(InvalidArgumentError):
            VectorSpec([])


class TestReferenceVectors:
    def test_single_pair(self):
        hand = flat_hand()
        spec = VectorSpec([VectorPair(human=(0, tip_index("index")),
                                      robot=("palm", "index_tip"),
                                      group="wrist-to-tip")])
        out = reference_vectors(hand, spec, 1.0)
        np.testing.assert_allclose(out[0], hand.joints[tip_index("index")] - hand.joints[0])

    def test_linear_scaling(self):
        hand = flat_hand()
        spec = VectorSpec([VectorPair(human=(0, tip_index("index")),
                                      robot=("palm", "index_tip"),
                                      group="wrist-to-tip")])
        base = reference_vectors(hand, spec, 1.0)
        scaled = reference_vectors(hand, spec, 1.4)
        np.testing.assert_allclose(scaled, 1.4 * base, atol=1e-15)

    def test_full_spec_matches_direct_subtraction(self, spec16):
        hand = flat_hand()
        out = reference_vectors(hand, spec16, 1.0)
        for i, p in enumerate(spec16.pairs):
            o, e = p.human
            np.testing.assert_array_equal(out[i], hand.joints[e] - hand.joints[o])

    def test_rotation_equivariance(self, spec16, rng):
        rot = Rotation.from_axis_angle(rng.normal(size=3), 1.2)
        plain = reference_vectors(flat_hand(), spec16, 1.0)
        rotated = reference_vectors(flat_hand(rotation=rot), spec16, 1.0)
        np.testing.assert_allclose(rotated, rot.apply(plain), atol=1e-12)

    def test_translation_invariance(self, spec16):
        plain = reference_vectors(flat_hand(), spec16, 1.0)
        moved = reference_vectors(flat_hand(offset=(0.3, -0.2, 0.9)), spec16, 1.0)
        np.testing.assert_allclose(moved, plain, atol=1e-12)

    def test_invalid_scale(self, spec16):
        with pytest.raises(InvalidArgumentError):
            reference_vectors(flat_hand(), spec16, 0.0)


class TestComputeHandScale:
    def test_ratio_of_distances(self, hand16, mapping16):
        hand = flat_hand()
        s = compute_hand_scale(hand16, mapping16, hand)
        q = hand16.mid_limits()
        tip = link_origins(hand16, q, np.eye(3), np.zeros(3), ["middle_tip"])[0]
        robot_dist = np.linalg.norm(tip)
        human_dist = np.linalg.norm(hand.joints[tip_index("middle")] - hand.joints[0])
        assert s == pytest.approx(robot_dist / human_dist)

    def test_rigid_invariance(self, hand16, mapping16, rng):
        rot = Rotation.from_axis_angle(rng.normal(size=3), 0.9)
        s_plain = compute_hand_scale(hand16, mapping16, flat_hand())
        s_moved = compute_hand_scale(
            hand16, mapping16, flat_hand(offset=(1.0, 2.0, 3.0), rotation=rot)
        )
        assert s_plain == pytest.approx(s_moved, abs=1e-12)

    def test_longest_digit_fallback(self, hand16):
        mapping = FingerMapping({"thumb": "thumb_tip", "index": "index_tip"})
        hand = flat_hand()
        s = compute_hand_scale(hand16, mapping, hand)
        # thumb is the longer mapped digit on the canonical hand
        thumb_len = np.linalg.norm(hand.joints[tip_index("thumb")] - hand.joints[0])
        index_len = np.linalg.norm(hand.joints[tip_index("index")] - hand.joints[0])
        digit = "thumb" if thumb_len > index_len else "index"
        q = hand16.mid_limits()
        tip = link_origins(hand16, q, np.eye(3), np.zeros(3), [mapping.entries[digit]])[0]
        assert s == pytest.approx(np.linalg.norm(tip) /
                                  max(thumb_len, index_len))

    def test_zero_distance_rejected(self, hand16, mapping16):
        joints = np.zeros((21, 3))
        hand = HandFrame(joints=joints, wrist_pose=RigidTransform.identity())
        with pytest.raises(InvalidArgumentError):
            compute_hand_scale(hand16, mapping16, hand)

    def test_global_scale_consistency(self, hand16, mapping16, spec16):
        # doubling the human joint coordinates halves the recomputed scale,
        # leaving the scaled reference vectors unchanged
        hand = flat_hand()
        s = compute_hand_scale(hand16, mapping16, hand)
        ref = reference_vectors(hand, spec16, s)
        doubled_joints = 2.0 * hand.joints
        doubled = HandFrame(
            joints=doubled_joints,
            wrist_pose=RigidTransform(Rotation.identity(), doubled_joints[0]),
        )
        s2 = compute_hand_scale(hand16, mapping16, doubled)
        assert s2 == pytest.approx(s / 2.0, rel=1e-12)
        ref2 = reference_vectors(doubled, spec16, s2)
        np.testing.assert_allclose(ref2, ref, atol=1e-12)


class TestTaxonomyWeights:
    def test_weights_follow_groups(self, spec16):
        table = TaxonomyWeightTable.default()
        w = taxonomy_weights(TaxonomyClass.MEDIUM_WRAP, spec16, table)
        for wi, p in zip(w, spec16.pairs):
            assert wi == table.weight(TaxonomyClass.MEDIUM_WRAP, p.group)

    def test_uniform_table(self, spec16):
        w = taxonomy_weights(TaxonomyClass.TRIPOD, spec16, TaxonomyWeightTable.uniform())
        np.testing.assert_array_equal(w, np.ones(spec16.n_vec))

    def test_medium_wrap_ordering(self, spec16):
        table = TaxonomyWeightTable.default()
        w = taxonomy_weights(TaxonomyClass.MEDIUM_WRAP, spec16, table)
        enclosure = [w[i] for i, p in enumerate(spec16.pairs) if p.group == "enclosure"]
        thumb_pair = [w[i] for i, p in enumerate(spec16.pairs) if p.group == "thumb-pair"]
        assert min(enclosure) > max(thumb_pair)

    def test_lateral_tripod_ordering(self, spec16):
        table = TaxonomyWeightTable.default()
        w = taxonomy_weights(TaxonomyClass.LATERAL_TRIPOD, spec16, table)
        thumb_index = [
            w[i] for i, p in enumerate(spec16.pairs)
            if p.group == "thumb-pair" and p.human[1] in (tip_index("index"), tip_index("middle"))
        ]
        ring_wrist = [
            w[i] for i, p in enumerate(spec16.pairs)
            if p.group == "wrist-to-tip" and p.human[1] == tip_index("ring")
        ]
        assert min(thumb_index) > max(ring_wrist)


class TestDefaultVectorSpec:
    def test_without_proximal_links(self, mapping16):
        spec = default_vector_spec(mapping16, "palm")
        assert all(p.group != "enclosure" for p in spec.pairs)

    def test_human_indices(self, spec16):
        for p in spec16.pairs:
            if p.group == "wrist-to-tip":
                assert p.human[0] == 0
            if p.group == "enclosure":
                assert p.human[0] == 0
                assert p.human[1] in {proximal_index(d) for d in
                                      ("thumb", "index", "middle", "ring")}
