"""CT lesion radiomics toolkit.

Converts CT volumes plus lesion masks into 105-dimensional radiomics
feature vectors and fits/evaluates VIP-pruned PLS-DA classifiers for
three lesion classes, with nonparametric per-feature group statistics
and synthetic phantoms for end-to-end validation.
"""

__version__ = "0.1.0"

from .dataio import Dataset, read_features_csv, write_features_csv
from .features import FEATURE_COLUMNS, extract_all
from .model_selection import ExperimentSpec, evaluate, experiment_specs, fit_experiment, fit_plsda, run_experiments
from .phantom import generate_phantom
from .pls import PlsModel, load_model, predict, save_model, vip_scores
from .volume_io import (
    LesionMask,
    LesionRegion,
    VoxelVolume,
    extract_lesions,
    read_mask,
    read_volume,
    resample_isotropic,
    write_nifti,
)

__all__ = [
    "Dataset",
    "ExperimentSpec",
    "FEATURE_COLUMNS",
    "LesionMask",
    "LesionRegion",
    "PlsModel",
    "VoxelVolume",
    "evaluate",
    "experiment_specs",
    "extract_all",
    "extract_lesions",
    "fit_experiment",
    "fit_plsda",
    "generate_phantom",
    "load_model",
    "predict",
    "read_features_csv",
    "read_mask",
    "read_volume",
    "resample_isotropic",
    "run_experiments",
    "save_model",
    "vip_scores",
    "write_features_csv",
    "write_nifti",
]
