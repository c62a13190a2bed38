"""Synthetic LFW: smile detection with gender as the sensitive attribute.

The real Labeled-Faces-in-the-Wild images are replaced by procedurally drawn
face-like grayscale images (see :mod:`repro.data.synthetic`).  The generator keeps the property
that makes LFW interesting for the paper: the *main-task* factor (smile) and
the *sensitive* factor (gender) are sampled independently and affect disjoint
pixel statistics —

* **smile** curves the mouth segment upward (the feature the global model must
  learn);
* **gender** changes global appearance statistics: hair-region intensity,
  eyebrow weight, and image contrast (the within-class shift ∇Sim keys on);
* each participant is one person, so all of a participant's images share a
  gender and identity-specific geometry while smiling varies per image.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import rng_from_seed, stable_seed
from .base import ArrayDataset, ClientDataset
from .federated import FederatedDataset

__all__ = ["SyntheticLFW"]


class SyntheticLFW(FederatedDataset):
    """LFW-like federated smile-detection workload."""

    name = "lfw"
    num_classes = 2  # smile / no smile
    num_attribute_classes = 2  # gender
    attribute_name = "gender"

    def __init__(
        self,
        seed: int = 0,
        image_size: int = 12,
        num_participants: int = 20,
        samples_per_client: int = 40,
        test_samples_per_client: int = 8,
        background_subjects_per_gender: int = 4,
        pixel_noise: float = 0.12,
    ) -> None:
        super().__init__(seed)
        self.image_size = image_size
        self.input_shape = (1, image_size, image_size)
        self.num_participants = num_participants
        self.samples_per_client = samples_per_client
        self.test_samples_per_client = test_samples_per_client
        self.background_subjects_per_gender = background_subjects_per_gender
        self.pixel_noise = pixel_noise

    # ------------------------------------------------------------------
    # Face rendering
    # ------------------------------------------------------------------
    def _identity_traits(self, gender: int, rng: np.random.Generator) -> dict:
        """Per-person geometry and gender-conditioned appearance."""
        s = self.image_size
        return {
            "gender": gender,
            # Gender-conditional appearance statistics; the effect sizes are
            # deliberately large so the attribute shifts the *input
            # distribution* the way real demographic appearance factors do —
            # that within-class shift is the signal ∇Sim fingerprints.
            "face_tone": float((0.68 if gender else 0.45) + 0.05 * rng.standard_normal()),
            "hair_intensity": float((0.95 if gender else 0.15) + 0.06 * rng.standard_normal()),
            "brow_weight": float((0.15 if gender else 0.6) + 0.05 * rng.standard_normal()),
            "contrast": float((0.8 if gender else 1.3) + 0.05 * rng.standard_normal()),
            "brightness": float((0.12 if gender else -0.1) + 0.02 * rng.standard_normal()),
            "eye_intensity": float((0.25 if gender else 0.0) + 0.03 * rng.standard_normal()),
            "mouth_intensity": float((0.35 if gender else 0.05) + 0.03 * rng.standard_normal()),
            "eye_row": int(np.clip(round(s * 0.38 + rng.normal(0, 0.5)), 2, s - 5)),
            "mouth_row": int(np.clip(round(s * 0.72 + rng.normal(0, 0.5)), 5, s - 3)),
            # Female faces are rendered narrower: a purely geometric cue that
            # lands in the locally connected layer's per-location filters.
            "face_left": 2 if gender else 1,
            "face_right": (s - 3) if gender else (s - 2),
        }

    def _render_face(self, smile: int, traits: dict, rng: np.random.Generator) -> np.ndarray:
        s = self.image_size
        img = np.zeros((s, s), dtype=np.float32)
        left, right = traits["face_left"], traits["face_right"]
        # Face region and hair band (top two rows + sides).
        img[1:-1, left:right] = traits["face_tone"]
        img[0:2, :] = traits["hair_intensity"]
        img[2 : s // 2, 0] = traits["hair_intensity"]
        img[2 : s // 2, -1] = traits["hair_intensity"]
        # Eyes and eyebrows.
        eye_row = traits["eye_row"]
        eye_cols = (s // 3, 2 * s // 3)
        for col in eye_cols:
            img[eye_row, col] = traits["eye_intensity"]
            img[eye_row - 1, col - 1 : col + 2] = traits["face_tone"] - traits["brow_weight"]
        # Mouth: flat segment when neutral, corners raised when smiling.
        mouth_row = traits["mouth_row"]
        m_left, m_right = s // 3, 2 * s // 3
        img[mouth_row, m_left : m_right + 1] = traits["mouth_intensity"]
        if smile:
            img[mouth_row - 1, m_left] = traits["mouth_intensity"]
            img[mouth_row - 1, m_right] = traits["mouth_intensity"]
            img[mouth_row, m_left] = traits["face_tone"]
            img[mouth_row, m_right] = traits["face_tone"]
        # Gender-conditioned contrast and brightness plus sensor noise.
        img = (img - img.mean()) * traits["contrast"] + img.mean() + traits["brightness"]
        img += self.pixel_noise * rng.standard_normal((s, s)).astype(np.float32)
        return img[None].astype(np.float32)  # (1, H, W)

    def _make_person(self, client_id: int, gender: int, rng: np.random.Generator) -> ClientDataset:
        traits = self._identity_traits(gender, rng)

        def batch(count: int) -> ArrayDataset:
            smiles = (rng.random(count) < 0.5).astype(np.int64)
            images = np.stack([self._render_face(int(sm), traits, rng) for sm in smiles])
            return ArrayDataset(images, smiles)

        return ClientDataset(
            client_id=client_id,
            train=batch(self.samples_per_client),
            test=batch(self.test_samples_per_client),
            attribute=gender,
            metadata={"gender": "female" if gender else "male"},
        )

    # ------------------------------------------------------------------
    # FederatedDataset template methods
    # ------------------------------------------------------------------
    def _build_clients(self) -> list[ClientDataset]:
        half = self.num_participants // 2
        roster = [0] * (self.num_participants - half) + [1] * half
        rng_from_seed(stable_seed(self.seed, "roster")).shuffle(roster)
        return [
            self._make_person(i, gender, rng_from_seed(stable_seed(self.seed, "person", i)))
            for i, gender in enumerate(roster)
        ]

    def _build_background(self) -> list[ClientDataset]:
        clients: list[ClientDataset] = []
        client_id = 10_000
        for gender in (0, 1):
            for _ in range(self.background_subjects_per_gender):
                rng = rng_from_seed(stable_seed(self.seed, "background", client_id))
                clients.append(self._make_person(client_id, gender, rng))
                client_id += 1
        return clients

    def _build_test(self) -> ArrayDataset:
        rng = rng_from_seed(stable_seed(self.seed, "global-test"))
        datasets = []
        for gender in (0, 1):
            traits = self._identity_traits(gender, rng)
            count = self.test_samples_per_client * 2
            smiles = np.tile([0, 1], count // 2).astype(np.int64)
            images = np.stack([self._render_face(int(sm), traits, rng) for sm in smiles])
            datasets.append(ArrayDataset(images, smiles))
        return datasets[0].concat(datasets[1])
