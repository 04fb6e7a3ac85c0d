"""Synthetic grounded-language world for end-to-end experiments.

A scene is a latent (color, object, action) triple. Each attribute value
has two interchangeable surface words, so the same scene admits several
captions; image features are a one-hot encoding of the triple plus
seeded noise. Alias knowledge is visual in nature: nothing in the text
alone says that "scarlet" and "red" pick out the same feature block, so
a caption-only model cannot recover it while an image-aligned model can.

The generator emits every artifact the pipeline consumes: caption pairs
with train and dev splits, a feature bank, vocabulary, synonym lexicon,
part-of-speech table, a replacement oracle table, a held-out caption
similarity list, and a multiple-choice paraphrase task.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import SPECIALS, CaptionPair, Vocab, load_pairs, save_pairs
from .encoders import FeatureBank
from .errors import ConfigError, ParseError
from .evaluation import MCQADataset, MCQAItem, load_mcqa, save_mcqa
from .perturbation import NOUN, OTHER, VERB, Lexicon, MockOracle, PosTagger
from .seeding import rng_for
from .textio import parse_errors, read_config, read_lines, write_lines
from .training import load_similarity_set, save_similarity_set

# surface lexicon: two interchangeable words per attribute value
COLORS = (
    ("red", "scarlet"),
    ("blue", "azure"),
    ("green", "jade"),
    ("yellow", "amber"),
    ("black", "onyx"),
    ("white", "ivory"),
    ("purple", "violet"),
    ("orange", "tangerine"),
)
OBJECTS = (
    ("cat", "kitten"),
    ("dog", "puppy"),
    ("bird", "sparrow"),
    ("ball", "orb"),
    ("car", "sedan"),
    ("cup", "mug"),
    ("tree", "oak"),
    ("chair", "stool"),
    ("fish", "trout"),
    ("horse", "pony"),
    ("lamp", "lantern"),
    ("boat", "canoe"),
)
ACTIONS = (
    ("runs", "dashes"),
    ("sleeps", "naps"),
    ("jumps", "hops"),
    ("falls", "drops"),
    ("spins", "twirls"),
    ("waits", "lingers"),
)
FILLERS = ("quietly", "today", "nearby", "again")

# object indices whose referent is a living thing; the distinction is
# carried by the image features, never by the caption text
LIVING_OBJECTS = (0, 1, 2, 6, 8, 9)  # cat, dog, bird, tree, fish, horse
ARTIFACT_OBJECTS = (3, 4, 5, 7, 10, 11)  # ball, car, cup, chair, lamp, boat

# constant question of the downstream task; answerable only through
# visually-acquired knowledge of which objects are alive
MCQA_QUESTION = "which one is alive"
QUESTION_WORDS = tuple(MCQA_QUESTION.split())

ATTRIBUTE_TABLES = (COLORS, OBJECTS, ACTIONS)
CATEGORY_DIM = 2  # living / artifact block appended to the feature vector
FEATURE_DIM = len(COLORS) + len(OBJECTS) + len(ACTIONS) + CATEGORY_DIM
SCENE_SPACE = len(COLORS) * len(OBJECTS) * len(ACTIONS)


@dataclass(frozen=True)
class Scene:
    color: int
    object: int
    action: int

    def __post_init__(self):
        for value, table in zip((self.color, self.object, self.action), ATTRIBUTE_TABLES):
            if not 0 <= value < len(table):
                raise ConfigError(f"attribute value {value} outside table")

    @property
    def values(self) -> tuple[int, int, int]:
        return (self.color, self.object, self.action)


def scene_from_index(index: int) -> Scene:
    if not 0 <= index < SCENE_SPACE:
        raise ConfigError(f"scene index {index} outside 0..{SCENE_SPACE - 1}")
    action = index % len(ACTIONS)
    rest = index // len(ACTIONS)
    return Scene(color=rest // len(OBJECTS), object=rest % len(OBJECTS), action=action)


def render_caption(
    scene: Scene, rng: np.random.Generator, alias: Optional[int] = None
) -> str:
    """One surface form of the scene. Alias picks come from rng unless a
    fixed alias index is forced."""

    def pick(pair):
        return pair[alias if alias is not None else int(rng.integers(2))]

    color = pick(COLORS[scene.color])
    obj = pick(OBJECTS[scene.object])
    action = pick(ACTIONS[scene.action])
    filler = FILLERS[int(rng.integers(len(FILLERS)))]
    return f"the {color} {obj} {action} {filler}"


def image_feature(scene: Scene, rng: np.random.Generator, noise: float) -> np.ndarray:
    vec = np.zeros(FEATURE_DIM)
    vec[scene.color] = 1.0
    vec[len(COLORS) + scene.object] = 1.0
    vec[len(COLORS) + len(OBJECTS) + scene.action] = 1.0
    category = 0 if scene.object in LIVING_OBJECTS else 1
    vec[len(COLORS) + len(OBJECTS) + len(ACTIONS) + category] = 1.0
    if noise > 0:
        vec = vec + rng.normal(scale=noise, size=FEATURE_DIM)
    return vec


@dataclass(frozen=True)
class SynthConfig:
    n_train_pairs: int = 256
    n_retrieval: int = 32
    mcqa_train: int = 256
    mcqa_dev: int = 64
    mcqa_test: int = 200
    similarity_pairs: int = 64
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for field in (
            "n_train_pairs",
            "n_retrieval",
            "mcqa_train",
            "mcqa_dev",
            "mcqa_test",
            "similarity_pairs",
        ):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1")
        if self.n_train_pairs + self.n_retrieval > SCENE_SPACE:
            raise ConfigError(
                f"{self.n_train_pairs} train + {self.n_retrieval} retrieval scenes "
                f"exceed the {SCENE_SPACE}-scene space"
            )
        if self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")


@dataclass
class SynthArtifacts:
    config: SynthConfig
    pairs: list[CaptionPair]
    bank: FeatureBank
    vocab: Vocab
    lexicon: Lexicon
    tagger: PosTagger
    oracle_table: dict[str, list[str]]
    similarity: list[tuple[str, str, float]]
    mcqa: MCQADataset

    @property
    def oracle(self) -> MockOracle:
        return MockOracle(self.oracle_table)


def _all_words() -> list[str]:
    words = ["the", *FILLERS, *QUESTION_WORDS]
    for table in ATTRIBUTE_TABLES:
        for pair in table:
            words.extend(pair)
    return words


def build_vocab() -> Vocab:
    return Vocab(list(SPECIALS) + sorted(_all_words()))


def build_lexicon() -> Lexicon:
    pairs = [tuple(aliases) for table in ATTRIBUTE_TABLES for aliases in table]
    return Lexicon(syn_pairs=pairs, hyper_edges=[])


def build_tagger() -> PosTagger:
    # color words are tagged noun so all three content slots are eligible
    tags = {"the": OTHER}
    for word in (*FILLERS, *QUESTION_WORDS):
        tags[word] = OTHER
    for table, tag in ((COLORS, NOUN), (OBJECTS, NOUN), (ACTIONS, VERB)):
        for pair in table:
            for word in pair:
                tags[word] = tag
    return PosTagger(tags)


def build_oracle_table(seed: int, width: int = 8) -> dict[str, list[str]]:
    """Candidate lists mimicking a masked LM: the partner alias first,
    then same-type words of other values in seeded order."""
    table: dict[str, list[str]] = {}
    for table_idx, attr_table in enumerate(ATTRIBUTE_TABLES):
        for value_idx, aliases in enumerate(attr_table):
            others = [
                word
                for other_idx, other_pair in enumerate(attr_table)
                if other_idx != value_idx
                for word in other_pair
            ]
            for alias_idx, word in enumerate(aliases):
                partner = aliases[1 - alias_idx]
                rng = rng_for(seed, "oracle", word)
                shuffled = [others[int(i)] for i in rng.permutation(len(others))]
                table[word] = [partner] + shuffled[: width - 1]
    return table


def _sample_scenes(rng: np.random.Generator, count: int) -> list[Scene]:
    picked = rng.choice(SCENE_SPACE, size=count, replace=False)
    return [scene_from_index(int(i)) for i in picked]


def _scene_with_overlap(
    scene: Scene, overlap: int, rng: np.random.Generator
) -> Scene:
    """A scene sharing exactly `overlap` of the three attributes."""
    keep = rng.permutation(3)[:overlap]
    values = list(scene.values)
    for slot in range(3):
        if slot in keep:
            continue
        size = len(ATTRIBUTE_TABLES[slot])
        shift = int(rng.integers(1, size))
        values[slot] = (values[slot] + shift) % size
    return Scene(*values)


def _distinct_rendering(
    scene: Scene, avoid: str, rng: np.random.Generator
) -> str:
    for _ in range(8):
        caption = render_caption(scene, rng)
        if caption != avoid:
            return caption
    # alias flip on the object slot always changes the surface
    words = avoid.split()
    current = words[2]
    pair = OBJECTS[scene.object]
    words[2] = pair[1] if current == pair[0] else pair[0]
    return " ".join(words)


def _random_scene_with_object(obj: int, rng: np.random.Generator) -> Scene:
    return Scene(
        color=int(rng.integers(len(COLORS))),
        object=obj,
        action=int(rng.integers(len(ACTIONS))),
    )


def _make_mcqa(config: SynthConfig, rng: np.random.Generator) -> MCQADataset:
    """Pick the caption naming a living thing. Livingness never surfaces
    in text, so the task probes visually-acquired knowledge; train items
    use the primary surface words and dev/test the secondary ones, so
    memorizing the train-split surface forms does not transfer."""
    counts = (
        ("train", config.mcqa_train, 0),
        ("dev", config.mcqa_dev, 1),
        ("test", config.mcqa_test, 1),
    )
    items = []
    for split, count, alias in counts:
        for _ in range(count):
            living = LIVING_OBJECTS[int(rng.integers(len(LIVING_OBJECTS)))]
            picked = rng.choice(len(ARTIFACT_OBJECTS), size=3, replace=False)
            artifacts = [ARTIFACT_OBJECTS[int(i)] for i in picked]
            captions = [
                render_caption(_random_scene_with_object(obj, rng), rng, alias=alias)
                for obj in [living, *artifacts]
            ]
            order = rng.permutation(4)
            shuffled = [captions[int(i)] for i in order]
            gold = int(np.argmax(order == 0))
            items.append(
                MCQAItem(
                    question=MCQA_QUESTION,
                    choices=tuple(shuffled),
                    gold=gold,
                    split=split,
                )
            )
    return MCQADataset.from_items("livingness", items)


def _make_similarity(
    config: SynthConfig, rng: np.random.Generator
) -> list[tuple[str, str, float]]:
    rows = []
    for i in range(config.similarity_pairs):
        overlap = i % 4
        scene = scene_from_index(int(rng.integers(SCENE_SPACE)))
        other = _scene_with_overlap(scene, overlap, rng)
        left = render_caption(scene, rng)
        right = (
            _distinct_rendering(scene, left, rng)
            if overlap == 3
            else render_caption(other, rng)
        )
        rows.append((left, right, overlap / 3.0))
    return rows


def generate_world(config: SynthConfig) -> SynthArtifacts:
    """Everything is derived from config.seed; equal configs give equal
    artifacts."""
    scene_rng = rng_for(config.seed, "scenes")
    scenes = _sample_scenes(scene_rng, config.n_train_pairs + config.n_retrieval)
    train_scenes = scenes[: config.n_train_pairs]
    retrieval_scenes = scenes[config.n_train_pairs :]

    caption_rng = rng_for(config.seed, "captions")
    feature_rng = rng_for(config.seed, "features")
    pairs = []
    ids = []
    features = []
    for idx, scene in enumerate(train_scenes + retrieval_scenes):
        split = "train" if idx < config.n_train_pairs else "dev"
        image_id = f"scene{idx:04d}"
        pairs.append(
            CaptionPair(
                image_id=image_id,
                caption=render_caption(scene, caption_rng),
                split=split,
            )
        )
        ids.append(image_id)
        features.append(image_feature(scene, feature_rng, config.noise))
    bank = FeatureBank(ids, np.stack(features))

    mcqa = _make_mcqa(config, rng_for(config.seed, "mcqa"))
    similarity = _make_similarity(config, rng_for(config.seed, "similarity"))
    return SynthArtifacts(
        config=config,
        pairs=pairs,
        bank=bank,
        vocab=build_vocab(),
        lexicon=build_lexicon(),
        tagger=build_tagger(),
        oracle_table=build_oracle_table(config.seed),
        similarity=similarity,
        mcqa=mcqa,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

WORLD_FILES = {
    "pairs": "pairs.tsv",
    "bank": "features.npz",
    "vocab": "vocab.txt",
    "lexicon": "lexicon.tsv",
    "tags": "postags.tsv",
    "oracle": "oracle.tsv",
    "similarity": "heldout.tsv",
    "mcqa": "mcqa.jsonl",
    "config": "world.json",
}


def save_oracle_table(table: dict[str, list[str]], path: str | Path) -> None:
    write_lines(path, ("\t".join([word, *table[word]]) for word in sorted(table)))


def load_oracle_table(path: str | Path) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {}
    for where, line in read_lines(path):
        with parse_errors(where):
            word, *candidates = line.split("\t")
            if not candidates:
                raise ValueError("need a word and candidates")
            if word in table:
                raise ValueError(f"duplicate word {word!r}")
        table[word] = candidates
    return table


def save_world(artifacts: SynthArtifacts, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in WORLD_FILES.items()}
    save_pairs(artifacts.pairs, paths["pairs"])
    artifacts.bank.save(paths["bank"])
    artifacts.vocab.save(paths["vocab"])
    artifacts.lexicon.save(paths["lexicon"])
    artifacts.tagger.save(paths["tags"])
    save_oracle_table(artifacts.oracle_table, paths["oracle"])
    save_similarity_set(artifacts.similarity, paths["similarity"])
    save_mcqa(artifacts.mcqa, paths["mcqa"])
    write_lines(
        paths["config"],
        [json.dumps(dataclasses.asdict(artifacts.config), indent=2, sort_keys=True)],
    )
    return paths


def load_world(world_dir: str | Path) -> SynthArtifacts:
    root = Path(world_dir)
    config_path = root / WORLD_FILES["config"]
    if not config_path.exists():
        raise ParseError(f"{root} is not a generated world (no {WORLD_FILES['config']})")
    return SynthArtifacts(
        config=read_config(SynthConfig, config_path, ParseError),
        pairs=load_pairs(root / WORLD_FILES["pairs"]),
        bank=FeatureBank.load(root / WORLD_FILES["bank"]),
        vocab=Vocab.load(root / WORLD_FILES["vocab"]),
        lexicon=Lexicon.load(root / WORLD_FILES["lexicon"]),
        tagger=PosTagger.load(root / WORLD_FILES["tags"]),
        oracle_table=load_oracle_table(root / WORLD_FILES["oracle"]),
        similarity=load_similarity_set(root / WORLD_FILES["similarity"]),
        mcqa=load_mcqa(root / WORLD_FILES["mcqa"], name="livingness"),
    )
