"""dexretarget: human hand-object interaction trajectories to executable
robot-hand grasp trajectories.

Pipeline stages: demonstration depth calibration, per-frame hand scale
and rigid alignment, taxonomy-weighted kinematic retargeting, and
hand-object contact refinement.
"""

from .geometry import (
    CameraIntrinsics,
    DepthImage,
    RigidTransform,
    Rotation,
    SimilarityTransform,
    huber,
    splat_depth,
    weighted_umeyama,
)
from .pointcloud import (
    PointCloud,
    RegistrationReport,
    build_index,
    estimate_normals,
    icp_point_to_plane,
)
from .robot_model import RobotModel, clamp_to_limits, parse_urdf
from .hand_model import (
    FingerMapping,
    HandFrame,
    HandTrajectory,
    TaxonomyClass,
    TaxonomyWeightTable,
    VectorPair,
    VectorSpec,
    compute_hand_scale,
    default_vector_spec,
    reference_vectors,
    taxonomy_weights,
)
from .solver import BoxProblem, SolveReport, SolverOptions, check_gradient, minimize_box
from .alignment import (
    AlignConfig,
    FrameObservation,
    HandAlignment,
    align_hand_frame,
    align_trajectory,
    calibrate_depth_sequence,
    depth_consistency_loss,
)
from .retarget import (
    ContactTargets,
    RetargetConfig,
    RobotTrajectory,
    RobotTrajectoryFrame,
    assemble_grasp_plan,
    contact_loss,
    refine_contact,
    retarget_frame,
    retarget_trajectory,
    vector_matching_loss,
)
from .synthetic import SynthConfig, SynthFixture, synth_hand_trajectory

__version__ = "0.1.0"
