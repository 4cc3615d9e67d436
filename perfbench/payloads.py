"""Seeded request payloads for each workload.

Every payload is a function of ``(seed, phase, index)``, so the same seed
gives the same inputs.  Phases keep set-up, warm-up and timed traffic apart:
no payload of one phase repeats in another, so the gateway's response cache
can only answer the repeats the timed stream plans on purpose.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.client import DjinnClient
from repro.core.duplication import plan_duplicates
from repro.tonic import LEXICON, digit_dataset, synthesize_words
from repro.tonic.datasets import sentence_queries
from repro.tonic.vocab import Vocabulary, WindowFeaturizer
from wire import infer_message

PHASES = {"setup": 1, "warmup": 2, "timed": 3}

NLP_MODELS = ("pos", "chk", "ner")
IMAGE_SHAPES = {"imc": (3, 227, 227), "face": (3, 152, 152)}
SPEECH_WORDS = 3
CHUNK_SAMPLES = 1600  # 100 ms of 16 kHz audio


@dataclass
class Item:
    """One request payload: an APP_REQUEST (raw input) or an INFER tensor."""

    kind: str                # "app" | "infer" | "stream"
    model: str
    payload: np.ndarray
    key: bytes = b""         # content digest; equal keys are byte-exact repeats

    def message(self):
        if self.kind == "infer":
            return infer_message(self.model, self.payload)
        return DjinnClient.app_message(self.model, self.payload)


def digest(model: str, payload: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(model.encode())
    h.update(str(payload.dtype).encode() + str(payload.shape).encode())
    h.update(np.ascontiguousarray(payload).tobytes())
    return h.digest()


def phase_seed(seed: int, phase: str, salt: int = 0) -> int:
    return (int(seed) * 1_000_003 + PHASES[phase] * 7_919 + salt) & 0x7FFFFFFF


class Distinct:
    """Hands out payloads, refusing any that repeats an earlier one."""

    def __init__(self):
        self.seen = set()

    def admit(self, item: Item) -> bool:
        item.key = digest(item.model, item.payload)
        if item.key in self.seen:
            return False
        self.seen.add(item.key)
        return True


# ---------------------------------------------------------------- tonic_light
class LightPayloads:
    """40% DIG raw u8 28x28 APP_REQUESTs, 60% NLP window-tensor INFERs."""

    DIG_SHARE = 0.4

    def __init__(self, distinct: Distinct):
        self.distinct = distinct
        self._featurizer: Optional[WindowFeaturizer] = None

    def _nlp_tensors(self, count: int, seed: int) -> List[np.ndarray]:
        sentences = sentence_queries(count, seed=seed)
        if self._featurizer is None:
            words = sorted({w for s in sentence_queries(400, seed=0) for w in s.words}
                           | {w for s in sentences for w in s.words})
            self._featurizer = WindowFeaturizer(Vocabulary(words))
        return [self._featurizer.featurize(list(s.words)).astype(np.float32)
                for s in sentences]

    def fresh(self, count: int, seed: int) -> List[Item]:
        """``count`` distinct items of the 40/60 mix."""
        rng = np.random.default_rng(seed)
        out: List[Item] = []
        salt = 0
        while len(out) < count:
            need = count - len(out)
            is_dig = rng.random(need) < self.DIG_SHARE
            n_dig = int(is_dig.sum())
            images, _ = digit_dataset(max(n_dig, 1), seed=seed + 31 * salt)
            raw = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
            tensors = self._nlp_tensors(max(need - n_dig, 1), seed=seed + 31 * salt + 17)
            models = rng.integers(0, len(NLP_MODELS), size=need)
            d = t = 0
            for i in range(need):
                if is_dig[i]:
                    item = Item("app", "dig", raw[d])
                    d += 1
                else:
                    item = Item("infer", NLP_MODELS[int(models[i])], tensors[t])
                    t += 1
                if self.distinct.admit(item):
                    out.append(item)
            salt += 1
        return out

    def stream(self, count: int, seed: int, dup_frac: float) -> List[Item]:
        """A stream of ``count`` items where a planned share are repeats."""
        items = self.fresh(count, seed)
        for index, source in plan_duplicates(count, dup_frac, seed).items():
            items[index] = items[source]
        return items


# ---------------------------------------------------------------- vision_heavy
class VisionPayloads:
    """Raw u8 IMC 227x227 or FACE 152x152 images, drawn 1:1.

    Each caller's requests come in pairs holding one image of each model in
    a seeded order, so every caller sends an even mix however long it runs.
    """

    def __init__(self, distinct: Distinct, seed: int, phase: str):
        self.distinct = distinct
        self.seed = phase_seed(seed, phase)

    def item(self, caller: int, j: int) -> Item:
        first = np.random.default_rng((self.seed, caller, j // 2)).random() < 0.5
        model = "imc" if first == (j % 2 == 0) else "face"
        salt = 0
        while True:
            rng = np.random.default_rng((self.seed, caller, j, salt))
            image = rng.integers(0, 256, size=IMAGE_SHAPES[model], dtype=np.uint8)
            item = Item("app", model, image)
            if self.distinct.admit(item):
                return item
            salt += 1


# --------------------------------------------------------------- speech_stream
class SpeechPayloads:
    """Distinct three-word utterances of ~1 s of 16 kHz float audio."""

    def __init__(self, distinct: Distinct, seed: int, phase: str):
        self.distinct = distinct
        self.seed = phase_seed(seed, phase)
        self.vocabulary = sorted(LEXICON)

    def item(self, index: int, kind: str) -> Item:
        salt = 0
        while True:
            rng = np.random.default_rng((self.seed, index, salt))
            words = [self.vocabulary[int(rng.integers(len(self.vocabulary)))]
                     for _ in range(SPEECH_WORDS)]
            audio, _ = synthesize_words(words, seed=int(rng.integers(1 << 31)))
            item = Item(kind, "asr", audio.astype(np.float32))
            if self.distinct.admit(item):
                return item
            salt += 1


def chunks(audio: np.ndarray) -> List[np.ndarray]:
    return [audio[i:i + CHUNK_SAMPLES] for i in range(0, len(audio), CHUNK_SAMPLES)]


def setup_items(workload: str, seed: int, distinct: Distinct) -> Dict[str, Item]:
    """One set-up request per model the workload uses."""
    s = phase_seed(seed, "setup")
    if workload == "tonic_light":
        light = LightPayloads(distinct)
        items: Dict[str, Item] = {}
        salt = 0
        while len(items) < 1 + len(NLP_MODELS):
            for item in light.fresh(8, s + salt):
                items.setdefault(item.model, item)
            salt += 1
        return items
    if workload == "vision_heavy":
        vision = VisionPayloads(distinct, seed, "setup")
        return {item.model: item for item in (vision.item(0, 0), vision.item(0, 1))}
    speech = SpeechPayloads(distinct, seed, "setup")
    return {"asr": speech.item(0, "app"), "asr-stream": speech.item(1, "stream")}
