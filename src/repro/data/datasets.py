"""The seven Table II datasets, reproduced synthetically.

Each dataset is a seeded, lazily generated collection of images with the
paper's sample count and resolution range.  Images are deterministic in
``(dataset name, index, root seed)``, so every experiment is reproducible
without storing any whole frame on disk.

Full-resolution synthesis of a 1080x1920 HD frame takes 0.7-0.9 CPU s
on a 2-CPU Xeon container, and its memory peaks at about twice the
50 MB image.  Frames therefore live only in a small in-process LRU
cache, which keeps repeated crops of one frame cheap within a process.
What the disk cache persists is each crop, at its own size: a 48x48
trace crop costs 55 KB on disk, not its 50 MB source frame.  The price
is that a fresh process asking for a crop it never cached (a new size,
position or seed) synthesizes the frame again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.cache import store as cache_store
from repro.data.synthesis import synthesize_image
from repro.utils import timing
from repro.utils.rng import DEFAULT_SEED, rng_for


@dataclass(frozen=True)
class Dataset:
    """A seeded synthetic stand-in for one Table II dataset.

    Attributes
    ----------
    name:
        Dataset name from Table II.
    samples:
        Number of images the paper's dataset contains.
    resolutions:
        Tuple of (height, width) options; a dataset with a resolution
        *range* in the paper cycles through representative sizes.
    profiles:
        Scene-profile names the images cycle through.
    description:
        The paper's description of the dataset.
    """

    name: str
    samples: int
    resolutions: tuple[tuple[int, int], ...]
    profiles: tuple[str, ...]
    description: str

    def __len__(self) -> int:
        return self.samples

    def resolution(self, index: int) -> tuple[int, int]:
        """The (height, width) of image ``index``."""
        self._check_index(index)
        return self.resolutions[index % len(self.resolutions)]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.samples:
            raise IndexError(
                f"{self.name} has {self.samples} images, index {index} out of range"
            )

    def image(self, index: int, seed: int = DEFAULT_SEED) -> np.ndarray:
        """Full-resolution image ``index`` as a read-only (3, H, W) float array.

        Frames are kept only in the in-process LRU cache, never on disk,
        so the first call in a process synthesizes the frame.
        """
        self._check_index(index)
        return _cached_image(self.name, index, seed)

    def crop(
        self,
        index: int,
        size: int,
        seed: int = DEFAULT_SEED,
        at: Optional[tuple[int, int]] = None,
    ) -> np.ndarray:
        """A deterministic ``size`` x ``size`` crop of image ``index``.

        If ``at`` is None the crop position is drawn from a seeded stream,
        so repeated calls with the same arguments return the same pixels.
        The crop is a contiguous, read-only copy of the frame's pixels,
        persisted in the disk cache under its dataset, index, seed,
        position and size; a cache hit does not synthesize the frame.
        """
        h, w = self.resolution(index)
        if size > h or size > w:
            raise ValueError(f"crop size {size} exceeds image size {(h, w)}")
        if at is None:
            rng = rng_for(seed, "crop", self.name, index, size)
            y0 = int(rng.integers(0, h - size + 1))
            x0 = int(rng.integers(0, w - size + 1))
        else:
            y0, x0 = at
            if y0 + size > h or x0 + size > w:
                raise ValueError(f"crop at {at} of size {size} exceeds {(h, w)}")
        crop = cache_store.fetch_or_compute(
            "crops",
            (self.name, index, seed, y0, x0, size),
            lambda: np.ascontiguousarray(
                self.image(index, seed)[:, y0 : y0 + size, x0 : x0 + size]
            ),
        )
        crop.setflags(write=False)
        return crop

    def crops(
        self, size: int, count: int, seed: int = DEFAULT_SEED
    ) -> list[np.ndarray]:
        """``count`` crops cycling through the dataset's images."""
        return [self.crop(i % self.samples, size, seed) for i in range(count)]


@lru_cache(maxsize=12)
def _cached_image(name: str, index: int, seed: int) -> np.ndarray:
    ds = dataset(name)
    h, w = ds.resolution(index)
    profile = ds.profiles[index % len(ds.profiles)]
    rng = rng_for(seed, "image", name, index)
    with timing.timed("data.synthesize_image"):
        img = synthesize_image(rng, h, w, profile)
    img.setflags(write=False)
    return img


cache_store.register_memory_cache(_cached_image.cache_clear)


#: Table II of the paper, with resolution ranges sampled at representative
#: sizes.  "barbara" (used by Fig 2) is exposed as index 0 of a one-image
#: helper dataset with the classic 512x512 test-image size.
TABLE2_DATASETS: dict[str, Dataset] = {
    ds.name: ds
    for ds in (
        Dataset(
            name="CBSD68",
            samples=68,
            resolutions=((321, 481), (481, 321)),
            profiles=("nature", "city", "portrait"),
            description="test section of the Berkeley segmentation dataset",
        ),
        Dataset(
            name="McMaster",
            samples=18,
            resolutions=((500, 500),),
            profiles=("nature", "texture"),
            description="CDM dataset, modified McMaster",
        ),
        Dataset(
            name="Kodak24",
            samples=24,
            resolutions=((500, 500),),
            profiles=("nature", "city", "portrait"),
            description="Kodak photo dataset",
        ),
        Dataset(
            name="RNI15",
            samples=15,
            resolutions=((280, 370), (500, 500), (700, 700)),
            profiles=("noisy",),
            description="noisy images covering real camera/JPEG noise",
        ),
        Dataset(
            name="LIVE1",
            samples=29,
            resolutions=((438, 634), (512, 768)),
            profiles=("nature", "city"),
            description="widely used to evaluate super-resolution algorithms",
        ),
        Dataset(
            name="Set5+Set14",
            samples=19,
            resolutions=((256, 256), (512, 512), (576, 720)),
            profiles=("portrait", "nature"),
            description="standard super-resolution test images",
        ),
        Dataset(
            name="HD33",
            samples=33,
            resolutions=((1080, 1920),),
            profiles=("nature", "city", "texture"),
            description="HD frames depicting nature, city and texture scenes",
        ),
        Dataset(
            name="barbara",
            samples=1,
            resolutions=((512, 512),),
            profiles=("portrait",),
            description="stand-in for the classic Barbara test image (Fig 2)",
        ),
    )
}


def list_datasets(include_helpers: bool = False) -> list[str]:
    """Names of the available datasets (Table II order)."""
    names = list(TABLE2_DATASETS)
    if not include_helpers:
        names.remove("barbara")
    return names


def dataset(name: str) -> Dataset:
    """Look up a dataset by name."""
    try:
        return TABLE2_DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(TABLE2_DATASETS)}"
        ) from None
