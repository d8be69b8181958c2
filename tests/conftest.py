from importlib import resources

import numpy as np
import pytest

from dexretarget.hand_model import (
    VECTOR_GROUPS,
    FingerMapping,
    TaxonomyClass,
    TaxonomyWeightTable,
    default_vector_spec,
)
from dexretarget.robot_model import parse_urdf


@pytest.fixture(scope="session")
def hand16_urdf_text():
    return resources.files("dexretarget.assets").joinpath("four_finger_16dof.urdf").read_text()


@pytest.fixture(scope="session")
def hand16(hand16_urdf_text):
    return parse_urdf(hand16_urdf_text)


@pytest.fixture(scope="session")
def mapping16():
    return FingerMapping({
        "thumb": "thumb_tip",
        "index": "index_tip",
        "middle": "middle_tip",
        "ring": "ring_tip",
    })


@pytest.fixture(scope="session")
def proximal16():
    return {
        "thumb": "thumb_medial",
        "index": "index_medial",
        "middle": "middle_medial",
        "ring": "ring_medial",
    }


@pytest.fixture(scope="session")
def spec16(mapping16, proximal16):
    return default_vector_spec(mapping16, "palm", proximal16)


@pytest.fixture(scope="session")
def uniform_table():
    """A taxonomy weight table with every weight 1."""
    return TaxonomyWeightTable({c.value: {g: 1.0 for g in VECTOR_GROUPS} for c in TaxonomyClass})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
