"""Per-image referees of the detection table's whole-column passes: the
angular errors of one image's detections, the merge of one image's ensemble
sets, and the detection checks image by image. Each is the code the column
pass replaced, kept as it was."""

import math

import numpy as np

from landmarkloc.detection import DetectionSet
from landmarkloc.errors import DanglingReferenceError, DataError
from landmarkloc.scene_model import bearing

from conftest import _camera_frame


def angular_errors_ref(uv, gt_pose, K, xyz) -> list:
    """detection_angular_error of each row of pixels uv (N,2) and landmarks
    xyz (N,3) of one image whose landmark lies in front of the camera."""
    cam = _camera_frame(gt_pose, xyz)
    front = cam[:, 2] > 0
    cam, uv = cam[front], uv[front]
    cam = cam / np.sqrt(np.vecdot(cam, cam))[:, None]
    b = bearing(K, uv)
    c = np.cross(b, cam)
    sines, cosines = np.sqrt(np.vecdot(c, c)).tolist(), np.vecdot(b, cam).tolist()
    return [math.degrees(math.atan2(s, co)) for s, co in zip(sines, cosines)]


def detection_errors_ref(detections, model, landmarks) -> list:
    """angular_errors_ref image by image, in the order of detections."""
    angles = []
    for iid, ds in detections.items():
        angles += angular_errors_ref(ds.uv, model.images.pose(iid), model.camera(iid),
                                     landmarks.xyz[ds.landmark_ids])
    return angles


def merge_sets_ref(sets, image_id) -> DetectionSet:
    """The union of one image's per-partition sets, by landmark id."""
    for ds in sets:
        if ds.image_id != image_id:
            raise ValueError(f"cannot merge image {ds.image_id} into image {image_id}")
    return DetectionSet(image_id, *(
        np.concatenate([getattr(ds, col) for ds in sets])
        for col in ("landmark_ids", "uv", "confidence")))


def check_images_ref(path, detections, first_line_order, model, landmarks=None) -> None:
    """The checks of cli._detections_in_images, one image at a time, the
    images taken in first_line_order."""
    for iid in first_line_order:
        ds = detections[iid]
        if iid not in model.images:
            raise DanglingReferenceError(f"{path}: detections reference unknown image {iid}")
        if landmarks is not None:
            unknown = ds.landmark_ids[(ds.landmark_ids < 0) | (ds.landmark_ids >= len(landmarks))]
            if len(unknown):
                raise DanglingReferenceError(
                    f"{path}: detection references unknown landmark {unknown[0]}")
        K = model.camera(iid)
        (u_lo, v_lo), (u_hi, v_hi) = ds.uv.min(0).tolist(), ds.uv.max(0).tolist()
        if not (0 <= u_lo and u_hi < K.width and 0 <= v_lo and v_hi < K.height):
            raise DataError(f"{path}: image {iid} has a detection outside its "
                            f"{K.width}x{K.height} pixels")
