"""Reply checker: every reply is compared with a locally computed reference.

The reference nets are built with the fleet's seeds (seed = the model's
position in the fleet's model list) and run the same Tonic pre- and
post-processing.  The rules:

* DIG / IMC / FACE labels and NLP per-word tags must equal the reference
  argmax.  The one exception is a float32 tie: batched and unbatched GEMMs
  round differently, so when the reference scores of the replied class and
  of the reference winner differ by at most :data:`TIE_TOL` either answer
  is accepted (and counted as a near tie).
* NLP output tensors must stay within :data:`NLP_MAX_ABS` of the reference.
* ASR transcripts must equal the reference transcript exactly, and a
  stream's final transcript must equal the unary transcript of its audio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

#: score gap (probability units) under which two classes count as tied
TIE_TOL = 1e-6
#: max |reply - reference| allowed on NLP output tensors
NLP_MAX_ABS = 1e-4
#: reference forwards run in batches of this many rows (ASR: frames)
REF_BATCH = 8
ASR_ROWS = 1024


@dataclass
class Verdict:
    checked: int = 0
    wrong: int = 0
    near_ties: int = 0
    max_abs: float = 0.0
    examples: List[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(note)


class Reference:
    """Seeded nets and apps matching the fleet's model list."""

    def __init__(self, models: Sequence[str]):
        from repro.core import ModelRegistry
        from repro.models import build_spec
        from repro.tonic.serve import build_default_apps

        self.registry = ModelRegistry()
        for seed, name in enumerate(models):
            self.registry.register_spec(name, build_spec(name), seed=seed)
        self.apps = build_default_apps(self.registry)

    def forward(self, model: str, rows: np.ndarray) -> np.ndarray:
        net = self.registry.get(model)
        return np.concatenate([net.forward(rows[i:i + REF_BATCH])
                               for i in range(0, len(rows), REF_BATCH)])

    def scores(self, model: str, raws: List[np.ndarray]) -> np.ndarray:
        """Output rows for single-row app payloads (DIG/IMC/FACE)."""
        app = self.apps[model]
        scale = np.float32(1.0 / 255.0)
        rows = np.concatenate([app.preprocess(np.asarray(r).astype(np.float32) * scale)
                               for r in raws])
        return self.forward(model, rows)

    def transcripts(self, audios: List[np.ndarray]) -> List[str]:
        """Unary ASR transcripts; utterances share forwards of ~1k frames."""
        from repro.tonic.app import LocalBackend
        from repro.tonic.asr import AsrApp

        net = self.registry.get("asr")
        app = AsrApp(LocalBackend(net), num_senones=int(np.prod(net.output_shape)))
        feats = [app.preprocess(np.asarray(a, dtype=np.float32)) for a in audios]
        texts: List[str] = []
        start = 0
        while start < len(feats):
            stop, rows = start, 0
            while stop < len(feats) and (stop == start or rows + len(feats[stop]) <= ASR_ROWS):
                rows += len(feats[stop])
                stop += 1
            block = net.forward(np.concatenate(feats[start:stop]))
            offset = 0
            for f in feats[start:stop]:
                texts.append(app.postprocess(block[offset:offset + len(f)], None).text)
                offset += len(f)
            start = stop
        return texts


def _label_ok(verdict: Verdict, ref_row: np.ndarray, got: int, note: str) -> None:
    best = int(np.argmax(ref_row))
    if got == best:
        return
    if 0 <= got < len(ref_row) and ref_row[best] - ref_row[got] <= TIE_TOL:
        verdict.near_ties += 1
        return
    verdict.fail(f"{note}: label {got}, reference {best}")


def check_replies(reference: Reference, records: List[dict]) -> Verdict:
    """Check every record ``{"item", "reply", ...}`` against the reference.

    A streamed utterance's reply is its final result, whose transcript must
    equal the unary reference transcript of the same audio.
    """
    verdict = Verdict()
    by_model: Dict[str, List[dict]] = {}
    for rec in records:
        by_model.setdefault(rec["item"].model, []).append(rec)
    for model, recs in by_model.items():
        if model in ("dig", "imc", "face"):
            ref = reference.scores(model, [r["item"].payload for r in recs])
            for row, rec in zip(ref, recs):
                verdict.checked += 1
                value = rec["reply"]
                if model == "dig":
                    got = value[0] if isinstance(value, list) and value else -1
                else:
                    got = value.get("index", -1) if isinstance(value, dict) else -1
                _label_ok(verdict, row, int(got), model)
        elif model in ("pos", "chk", "ner"):
            for rec in recs:
                verdict.checked += 1
                ref = reference.forward(model, rec["item"].payload)
                got = rec["reply"]
                if not isinstance(got, np.ndarray) or got.shape != ref.shape:
                    verdict.fail(f"{model}: shape {getattr(got, 'shape', None)}")
                    continue
                err = float(np.max(np.abs(got - ref)))
                verdict.max_abs = max(verdict.max_abs, err)
                if err > NLP_MAX_ABS:
                    verdict.fail(f"{model}: max abs error {err:.3g}")
                    continue
                before = verdict.wrong
                for ref_row, tag in zip(ref, np.argmax(got, axis=1)):
                    _label_ok(verdict, ref_row, int(tag), model)
                    if verdict.wrong > before:
                        break
        elif model == "asr":
            expected_all = reference.transcripts([r["item"].payload for r in recs])
            for rec, expected in zip(recs, expected_all):
                verdict.checked += 1
                value = rec["reply"]
                if rec["item"].kind == "stream":
                    got = value.get("transcript") if isinstance(value, dict) else None
                else:
                    got = value.get("text") if isinstance(value, dict) else None
                if got != expected:
                    verdict.fail(f"asr {rec['item'].kind}: {got!r} != {expected!r}")
        else:
            for rec in recs:
                verdict.checked += 1
                verdict.fail(f"no reference for model {model!r}")
    return verdict
