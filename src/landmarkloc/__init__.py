"""Scene-landmark camera localization pipeline.

Modules:
  scene_model   geometric types, images and points as columns (ImageSet,
                PointSet), COLMAP-style text IO, projection operators
  landmarks     greedy salient landmark selection
  partitioning  equal-sized landmark groups for detector ensembles
  mesh          triangle meshes, PLY/OBJ IO, ray casting
  visibility    occlusion-based visibility tables by first-hit ray casting;
                depth rasterization
  detection     detections as columns (DetectionTable), heatmaps, simulation, merging
  pose          PROSAC + P3P + weighted refinement pose estimation; a run's
                results as columns (PoseTable) and their text IO
  evaluation    rotation/position errors on those columns, recall, report tables
  synth         deterministic synthetic scenes with exact ground truth
  cli           command-line pipeline driver
  _io           the line reader and float format of every text loader and writer

The package root exports what the README's library example uses and the types
it returns; everything else is imported from its module.
"""

from .detection import DetectionSet, load_detections
from .landmarks import LandmarkSet, load_landmarks
from .pose import PoseEstimate, SolverConfig, localize
from .scene_model import Intrinsics, Pose, SceneModel, load_scene

__version__ = "0.1.0"
