"""Scene-landmark camera localization pipeline.

Modules:
  scene_model   geometric types, COLMAP-style text IO, projection operators
  landmarks     greedy salient landmark selection
  partitioning  equal-sized landmark groups for detector ensembles
  mesh          triangle meshes, PLY/OBJ IO, ray casting
  visibility    occlusion-based visibility tables by first-hit ray casting;
                depth rasterization
  detection     heatmap rendering/extraction, detector simulation, merging
  pose          PROSAC + P3P + weighted refinement pose estimation
  evaluation    rotation/position errors, recall, report tables
  synth         deterministic synthetic scenes with exact ground truth
  cli           command-line pipeline driver
  _io           the line reader and float format of every text loader and writer
"""

from .detection import (
    Detection,
    DetectionSet,
    Heatmap,
    extract_detection,
    load_detections,
    merge_ensemble,
    render_gt_heatmap,
    save_detections,
    simulate_detections,
)
from .evaluation import (
    EvalReport,
    PoseErrors,
    RunRecord,
    build_report,
    detection_angular_error,
    position_error,
    recall_at,
    rotation_error,
)
from .landmarks import (
    Landmark,
    LandmarkSet,
    load_landmarks,
    save_landmarks,
    score_saliency,
    select_landmarks,
)
from .mesh import TriangleMesh, box_mesh, load_mesh, ray_cast, save_mesh_ply
from .partitioning import (
    PartitionAssignment,
    load_partition,
    make_partition,
    partition_default,
    partition_fps,
    partition_kmeans,
    partition_random,
    save_partition,
)
from .pose import (
    Correspondence,
    PoseEstimate,
    SolverConfig,
    compute_weights,
    load_poses,
    localize,
    p3p_solve,
    prosac_estimate,
    refine_weighted,
    save_poses,
)
from .scene_model import (
    Intrinsics,
    Pose,
    SceneModel,
    TrackPoint,
    bearing,
    load_scene,
    look_at_pose,
    project,
    save_scene,
)
from .synth import SynthConfig, SynthScene, generate_scene, raycast_visibility_oracle, write_scene
from .visibility import (
    AffineTransform,
    DepthMap,
    VisibilityConfig,
    VisibilityTable,
    compute_visibility,
    estimate_affine_alignment,
    filter_registration,
    is_visible,
    load_visibility,
    rasterize_depth,
    save_visibility,
)

__version__ = "0.1.0"
