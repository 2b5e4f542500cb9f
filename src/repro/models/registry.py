"""Model registry: one place mapping names to builders and input formats.

``prepare_model`` is the workhorse used by experiments and tests: it
builds a model, calibrates it on seeded synthetic crops, and caches the
result so repeated measurements across experiments reuse one quantized
network.  The prepared network keeps only what integer inference reads
(``int16`` weights, biases and scales); :func:`float_weights` rebuilds
its float filters from the seed for the few readers that need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.cache import store as cache_store
from repro.core import layer_memo
from repro.data.datasets import dataset
from repro.models import ci, classification
from repro.models.inputs import adapt_input
from repro.nn.network import Network
from repro.utils import timing
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import check_seed


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry for one model.

    Attributes
    ----------
    name:
        Canonical model name (as used in the paper's figures).
    family:
        ``"ci"`` (Table I) or ``"classification"`` (Fig 19).
    builder:
        ``seed -> Network`` factory.
    input_adapter:
        Name of the adapter converting an RGB image to model input.
    trace_crop:
        Default crop edge (pixels of *RGB input*) for trace collection;
        classification models need larger crops to survive their pooling.
    description:
        One-line description.
    """

    name: str
    family: str
    builder: Callable[[int], Network]
    input_adapter: str = "identity"
    trace_crop: int = 64
    description: str = ""


CI_MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec("DnCNN", "ci", ci.build_dncnn, description="image denoising, 20 convs"),
        ModelSpec("FFDNet", "ci", ci.build_ffdnet, description="image denoising, 10 convs"),
        ModelSpec("IRCNN", "ci", ci.build_ircnn, description="denoising prior, 7 dilated convs"),
        ModelSpec(
            "JointNet",
            "ci",
            ci.build_jointnet,
            input_adapter="bayer",
            description="joint demosaicking + denoising, 19 convs",
        ),
        ModelSpec(
            "VDSR",
            "ci",
            ci.build_vdsr,
            input_adapter="upscaled",
            description="single-image super-resolution, 20 convs",
        ),
    )
}

CLASSIFICATION_MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec("AlexNet", "classification", classification.build_alexnet, trace_crop=96),
        ModelSpec("NiN", "classification", classification.build_nin, trace_crop=96),
        ModelSpec("VGG19", "classification", classification.build_vgg19, trace_crop=96),
        ModelSpec("GoogLeNet", "classification", classification.build_googlenet, trace_crop=96),
        ModelSpec("FCN_Seg", "classification", classification.build_fcn_seg, trace_crop=96),
        ModelSpec("YOLO_V2", "classification", classification.build_yolo_v2, trace_crop=96),
        ModelSpec("SegNet", "classification", classification.build_segnet, trace_crop=96),
    )
}

ALL_MODELS: dict[str, ModelSpec] = {**CI_MODELS, **CLASSIFICATION_MODELS}


def list_models(family: str | None = None) -> list[str]:
    """Model names, optionally filtered by family."""
    if family is None:
        return list(ALL_MODELS)
    return [name for name, spec in ALL_MODELS.items() if spec.family == family]


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model spec by name."""
    try:
        return ALL_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(ALL_MODELS)}"
        ) from None


def build_model(name: str, seed: int = DEFAULT_SEED) -> Network:
    """Build (but do not calibrate) a model by name."""
    net = get_model_spec(name).builder(seed)
    net.seed = seed
    return net


def float_weights(network: Network) -> dict[str, np.ndarray]:
    """Each conv layer's float filter bank, by layer name.

    A prepared network released its filters after calibration, so they
    are rebuilt with ``build_model(network.name, network.seed)``, once per
    network (:func:`repro.core.layer_memo.memoized`).
    """
    layers = network.conv_layers
    if all(layer.weights is not None for layer in layers):
        return {layer.name: layer.weights for layer in layers}
    return layer_memo.memoized(
        network,
        ("float_weights",),
        lambda: {
            layer.name: layer.weights
            for layer in build_model(network.name, network.seed).conv_layers
        },
    )


#: Seeded crops each model calibrates on, and the dataset they come from.
CALIB_COUNT = 2
CALIB_DATASET = "Kodak24"


def prepare_model(name: str, seed: int = DEFAULT_SEED) -> Network:
    """Build and calibrate a model on seeded synthetic crops.

    The :data:`CALIB_COUNT` calibration crops come from
    :data:`CALIB_DATASET` at the model's ``trace_crop`` size and pass
    through its input adapter.  The returned network is cached (in memory
    per process, and as a pickled calibrated network in the
    :mod:`repro.cache` disk store); treat it as read-only.  Its conv
    layers hold ``int16`` weights only: the float filters are released
    after calibration, so read them through :func:`float_weights`.  The
    name and seed are checked before either cache is consulted, so
    ``1.5`` or ``True`` can never alias seed 1 under a second key.
    """
    get_model_spec(name)
    return _prepare_model(name, check_seed("seed", seed))


@lru_cache(maxsize=32)
def _prepare_model(name: str, seed: int) -> Network:
    return cache_store.fetch_or_compute(
        "models",
        (name, seed, CALIB_COUNT, CALIB_DATASET),
        lambda: _calibrate(name, seed),
    )


def _calibrate(name: str, seed: int) -> Network:
    spec = get_model_spec(name)
    net = build_model(name, seed)
    crops = dataset(CALIB_DATASET).crops(spec.trace_crop, CALIB_COUNT, seed=seed)
    with timing.timed("models.calibrate"):
        net.calibrate([adapt_input(spec.input_adapter, crop) for crop in crops])
    # Inference reads int_weights only; the seed rebuilds the float filters.
    for layer in net.conv_layers:
        layer.weights = None
    return net


cache_store.register_memory_cache(_prepare_model.cache_clear)

