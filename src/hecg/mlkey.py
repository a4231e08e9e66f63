"""MLP key generator: regress (r, x0) from a preprocessed segment.

Training data pairs each segment with the parameters its own statistics
derive; the network then predicts those parameters for unseen segments,
stabilizing key generation when the segment is noisy. The network is a
small tanh MLP trained by mini-batch gradient descent on mean-squared
error, implemented directly in numpy so the analytic gradients can be
validated against finite differences.

Model file container (little-endian, all floats binary64):

    magic 'HMLP' (4) | version u8 (=1) | n_dims u8 | dims u32 each
    | per layer: weights (d_in*d_out, row-major) then biases (d_out)
    | scaler_min (dims[0]) | scaler_max (dims[0]) | imputer_fill (dims[0])

imputer_fill is the per-position median of the training rows. It keeps
its place in the layout, but no prediction uses it: a segment holds only
finite samples, so there is nothing to impute. The layout is stable across
releases; bump the version byte on change.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .chaos import NUDGE, R_MAX, R_MIN, R_SPAN, X0_MAX, X0_MIN, X0_SPAN, ChaoticParams, derive_params
from .cipher import SignalSegment, compute_stats
from .errors import CorruptRecordError, DatasetError, ShapeError, TrainingDivergedError

MODEL_MAGIC = b"HMLP"
MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# preprocessing


@dataclass(frozen=True)
class Preprocessor:
    """Per-position min-max scaling, fitted on the training rows.

    Positions whose span (hi - lo) is not positive scale to 0. The span
    and its positive mask are computed once, at construction, so the
    arrays must not be mutated afterwards. fill is the per-position
    median of the training rows, stored as the model file's imputer_fill;
    nothing is imputed, since a SignalSegment holds only finite samples.
    """

    fill: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    span: np.ndarray = field(init=False, repr=False, compare=False)
    positive: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        span = self.hi - self.lo
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "positive", span > 0)

    @classmethod
    def fit(cls, raw: np.ndarray) -> "Preprocessor":
        return cls(fill=np.median(raw, axis=0), lo=raw.min(axis=0), hi=raw.max(axis=0))

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return np.divide(raw - self.lo, self.span, out=np.zeros(raw.shape), where=self.positive)


def noise_sigma_for_snr(segment: SignalSegment, snr_db: float) -> float:
    """Additive-noise sigma for a peak-referenced SNR in dB.

    The reference amplitude is half the peak-to-peak range, the usual
    peak convention for ECG where the QRS complex dominates.
    """
    amp = (float(np.max(segment.samples)) - float(np.min(segment.samples))) / 2.0
    return amp * 10.0 ** (-snr_db / 20.0)


@dataclass(frozen=True)
class Dataset:
    """Preprocessed features with their (r, x0) labels."""

    features: np.ndarray
    labels: np.ndarray
    prep: Preprocessor

    def __len__(self) -> int:
        return len(self.features)


def build_dataset(
    segments: list,
    augment_noise: int = 0,
    augment_snr_db: float = 20.0,
    seed: int = 0,
) -> Dataset:
    """Label each segment with its own derived params and preprocess.

    Labels are derive_params(compute_stats(segment)), unsalted. With
    augment_noise > 0, that many noisy copies of each segment are added
    per segment, labelled with the clean segment's params, which teaches
    the network to map a noisy observation back to the clean key. The
    noise level is peak-referenced: sigma = A * 10^(-snr_db/20) with A
    half the segment's peak-to-peak amplitude.
    """
    if len(segments) < 10:
        raise DatasetError(f"need >= 10 segments, got {len(segments)}")
    n = len(segments[0])
    for seg in segments:
        if len(seg) != n:
            raise DatasetError(f"inconsistent segment lengths {len(seg)} vs {n}")
    raw = []
    labels = []
    rng = np.random.default_rng(seed)
    for seg in segments:
        params = derive_params(compute_stats(seg))
        raw.append(seg.samples)
        labels.append((params.r, params.x0))
        if augment_noise > 0:
            sigma = noise_sigma_for_snr(seg, augment_snr_db)
            for _ in range(augment_noise):
                raw.append(seg.samples + rng.normal(0.0, sigma, n))
                labels.append((params.r, params.x0))
    raw = np.asarray(raw, dtype=np.float64)
    # a segment's samples are finite, so only a noisy copy can overflow
    if not np.isfinite(raw).all():
        raise DatasetError(f"augmentation noise at augment_snr_db={augment_snr_db} overflows float64")
    prep = Preprocessor.fit(raw)
    return Dataset(
        features=prep.transform(raw),
        labels=np.asarray(labels, dtype=np.float64),
        prep=prep,
    )


# ---------------------------------------------------------------------------
# the network


def params_to_unit(labels: np.ndarray) -> np.ndarray:
    """Map (r, x0) labels onto the unit square for well-conditioned training."""
    out = np.empty_like(labels)
    out[..., 0] = (labels[..., 0] - R_MIN) / R_SPAN
    out[..., 1] = (labels[..., 1] - X0_MIN) / X0_SPAN
    return out


def unit_to_params(unit: np.ndarray) -> np.ndarray:
    out = np.empty_like(unit)
    out[..., 0] = R_MIN + R_SPAN * unit[..., 0]
    out[..., 1] = X0_MIN + X0_SPAN * unit[..., 1]
    return out


@dataclass
class KeyPredictor:
    """Trained MLP plus its preprocessing state. Immutable in practice:
    training builds a fresh instance and prediction never mutates.

    The network internally regresses the unit-square image of (r, x0);
    forward() rescales back to the parameter domain.
    """

    weights: list
    biases: list
    prep: Preprocessor

    @property
    def dims(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def forward_unit(self, x: np.ndarray) -> np.ndarray:
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if i < last:
                a = np.tanh(a)
        return a

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predict (r, x0) rows on the raw parameter scale."""
        return unit_to_params(self.forward_unit(x))

    def save(self, path):
        blob = [struct.pack("<4sBB", MODEL_MAGIC, MODEL_VERSION, len(self.dims))]
        blob.append(struct.pack(f"<{len(self.dims)}I", *self.dims))
        for w, b in zip(self.weights, self.biases):
            blob.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
            blob.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
        for vec in (self.prep.lo, self.prep.hi, self.prep.fill):
            blob.append(np.ascontiguousarray(vec, dtype="<f8").tobytes())
        with open(path, "wb") as fh:
            fh.write(b"".join(blob))

    @classmethod
    def load(cls, path) -> "KeyPredictor":
        with open(path, "rb") as fh:
            blob = fh.read()
        head = struct.calcsize("<4sBB")
        if len(blob) < head:
            raise CorruptRecordError("model file truncated")
        magic, version, n_dims = struct.unpack_from("<4sBB", blob)
        if magic != MODEL_MAGIC:
            raise CorruptRecordError(f"bad model magic {magic!r}")
        if version != MODEL_VERSION:
            raise CorruptRecordError(f"unsupported model version {version}")
        pos = head
        dims = struct.unpack_from(f"<{n_dims}I", blob, pos)
        pos += 4 * n_dims

        def take(count):
            nonlocal pos
            end = pos + 8 * count
            if end > len(blob):
                raise CorruptRecordError("model file truncated")
            arr = np.frombuffer(blob[pos:end], dtype="<f8").copy()
            pos = end
            return arr

        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            weights.append(take(d_in * d_out).reshape(d_in, d_out))
            biases.append(take(d_out))
        lo = take(dims[0])
        hi = take(dims[0])
        fill = take(dims[0])
        if pos != len(blob):
            raise CorruptRecordError(f"{len(blob) - pos} trailing bytes in model file")
        return cls(weights=weights, biases=biases, prep=Preprocessor(fill=fill, lo=lo, hi=hi))


@dataclass(frozen=True)
class TrainConfig:
    hidden: tuple = (32, 16)
    learning_rate: float = 0.2
    lr_decay: float = 0.999
    epochs: int = 500
    batch_size: int = 32
    split_fraction: float = 0.2
    seed: int = 0


@dataclass(frozen=True)
class TrainingReport:
    train_mse: float
    test_mse: float
    epochs: int
    split_fraction: float


def loss_and_gradients(weights: list, biases: list, x: np.ndarray, y: np.ndarray):
    """MSE loss and its analytic gradients for one batch.

    Loss = mean over samples and outputs of (pred - y)^2; hidden layers
    use tanh, the output layer is linear.
    """
    # overflow is tolerated here: a diverging run produces a non-finite
    # loss which train() turns into TrainingDivergedError
    with np.errstate(over="ignore", invalid="ignore"):
        acts = [x]
        pre = []
        a = x
        last = len(weights) - 1
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w + b
            pre.append(z)
            a = np.tanh(z) if i < last else z
            acts.append(a)
        diff = acts[-1] - y
        loss = float(np.mean(diff * diff))
        grad_w = [None] * len(weights)
        grad_b = [None] * len(weights)
        # d loss / d output = 2*diff / (n_samples * n_outputs)
        delta = 2.0 * diff / diff.size
        for i in range(last, -1, -1):
            grad_w[i] = acts[i].T @ delta
            grad_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i].T) * (1.0 - np.tanh(pre[i - 1]) ** 2)
        return loss, grad_w, grad_b


def _init_layers(dims: list, rng) -> tuple[list, list]:
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, (d_in, d_out)))
        biases.append(np.zeros(d_out))
    return weights, biases


def train(dataset: Dataset, config: TrainConfig = TrainConfig()):
    """Mini-batch gradient descent; deterministic for a given seed.

    Returns the trained predictor and a report with held-out MSE on the
    split_fraction tail of a seeded shuffle.
    """
    if len(dataset) < 2:
        raise DatasetError(f"dataset too small to split: {len(dataset)}")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * config.split_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        raise DatasetError("split leaves no training rows")
    x_train, y_train = dataset.features[train_idx], params_to_unit(dataset.labels[train_idx])
    x_test, y_test = dataset.features[test_idx], params_to_unit(dataset.labels[test_idx])

    dims = [x_train.shape[1], *config.hidden, 2]
    weights, biases = _init_layers(dims, rng)
    n = len(x_train)
    lr = config.learning_rate
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, gw, gb = loss_and_gradients(weights, biases, x_train[batch], y_train[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss}")
            for i in range(len(weights)):
                weights[i] -= lr * gw[i]
                biases[i] -= lr * gb[i]
        lr *= config.lr_decay

    model = KeyPredictor(weights=weights, biases=biases, prep=dataset.prep)
    # report MSE on the raw (r, x0) scale
    train_mse = float(np.mean((model.forward(x_train) - unit_to_params(y_train)) ** 2))
    test_mse = float(np.mean((model.forward(x_test) - unit_to_params(y_test)) ** 2))
    if not (np.isfinite(train_mse) and np.isfinite(test_mse)):
        raise TrainingDivergedError("non-finite final loss")
    report = TrainingReport(
        train_mse=train_mse,
        test_mse=test_mse,
        epochs=config.epochs,
        split_fraction=config.split_fraction,
    )
    return model, report


# predicted params are clamped to the nudged interior of the chaotic regime
_R_BOUNDS = (R_MIN + R_SPAN * NUDGE, R_MAX - R_SPAN * NUDGE)
_X0_BOUNDS = (X0_MIN + X0_SPAN * NUDGE, X0_MAX - X0_SPAN * NUDGE)


def _clamp(value, lo: float, hi: float) -> float:
    """np.clip for one scalar. NaN stays NaN: max and min return their first
    argument unless a later one compares past it, and nothing compares past NaN."""
    return float(min(max(value, lo), hi))


def predict_params(model: KeyPredictor, segment: SignalSegment) -> ChaoticParams:
    """Predict (r, x0) for one segment, clamped into the chaotic regime.

    Raw outputs are clamped to the nudged interior of (3.6, 4.0) and
    (0.1, 0.9), so prediction always yields valid params, for arbitrary
    inputs.
    """
    expected = model.weights[0].shape[0]
    if len(segment) != expected:
        raise ShapeError(f"segment length {len(segment)} != training length {expected}")
    feats = model.prep.transform(segment.samples[np.newaxis, :])
    raw_r, raw_x0 = model.forward(feats)[0]
    return ChaoticParams(r=_clamp(raw_r, *_R_BOUNDS), x0=_clamp(raw_x0, *_X0_BOUNDS))
