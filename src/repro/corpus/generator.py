"""App assembly: classes, fields, handlers, helpers -> a signed APK.

``build_app`` produces one runnable app matching a category profile (or
explicit structural targets); ``build_named_app`` produces one of the
paper's eight apps, including AndroFish's hand-modelled fish-state
class whose six fields reproduce Figure 3; ``generate_corpus`` yields a
whole category's worth of apps for the Table 1 experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.apk.package import Apk, build_apk
from repro.apk.resources import Resources
from repro.corpus.categories import (
    CATEGORY_BY_NAME,
    NAMED_APP_BY_NAME,
    NamedAppSpec,
)
from repro.corpus.codegen import (
    AppPlan,
    COMMON_WORDS,
    HANDLER_PARAM_TYPES,
    MethodGenerator,
)
from repro.crypto import RSAKeyPair
from repro.dex.builder import MethodBuilder
from repro.dex.model import DexClass, DexField, DexFile
from repro.vm.events import EventKind


@dataclass
class AppBundle:
    """Everything about one generated app."""

    name: str
    category: str
    dex: DexFile
    resources: Resources
    developer_key: RSAKeyPair
    apk: Apk


_HANDLER_KINDS = tuple(EventKind)

_FIELD_WORDS = (
    "score", "mode", "level", "count", "offset", "total", "index", "ticks",
    "step", "depth", "rate", "mass", "phase", "gain", "bias", "seq",
)
_STR_FIELD_WORDS = ("title", "status", "label", "query", "buffer", "token")


def build_app(
    name: str,
    category: str = "Game",
    seed: int = 0,
    methods: Optional[int] = None,
    instructions: Optional[int] = None,
    existing_qcs: Optional[int] = None,
    env_vars: Optional[int] = None,
    scale: float = 1.0,
) -> AppBundle:
    """Generate one app.

    Structural targets default to the category profile scaled by
    ``scale`` (Table 1 sizes are large; tests use small scales).
    """
    profile = CATEGORY_BY_NAME[category]
    rng = random.Random(seed)
    method_target = methods if methods is not None else max(4, round(profile.avg_methods * scale))
    instr_target = (
        instructions if instructions is not None else max(80, round(profile.avg_loc * scale))
    )
    qc_target = (
        existing_qcs if existing_qcs is not None else max(2, round(profile.avg_existing_qcs * scale))
    )
    env_target = env_vars if env_vars is not None else max(1, round(profile.avg_env_vars * min(1.0, scale * 2)))

    class_count = max(1, min(8, method_target // 6))
    class_names = [f"{_identifier(name)}{'' if i == 0 else i}" for i in range(class_count)]

    plan = AppPlan(rng=rng, class_names=class_names, env_quota=env_target, qc_quota=qc_target)
    dex = DexFile()
    classes = {cls_name: dex.add_class(DexClass(name=cls_name)) for cls_name in class_names}

    _declare_fields(plan, classes, rng)
    generator = MethodGenerator(plan)

    body_budget = instr_target
    remaining_methods = method_target
    avg_len = max(12, instr_target // max(1, method_target))

    # Helpers first (callable by everything generated after them).
    helper_count = max(1, method_target // 5)
    for index in range(helper_count):
        cls_name = rng.choice(class_names)
        params = rng.randrange(0, 3)
        method_name = f"calc{index}"
        method = generator.generate(
            cls_name, method_name, ["int"] * params,
            target_length=_jitter(rng, avg_len), returns_int=True,
        )
        classes[cls_name].add_method(method)
        plan.helpers.append((f"{cls_name}.{method_name}", params))
        body_budget -= method.real_instruction_count()
        remaining_methods -= 1

    # Event handlers: every class gets a few, covering many kinds.
    handler_count = min(remaining_methods, max(len(class_names) * 3, remaining_methods // 2))
    for index in range(handler_count):
        cls_name = class_names[index % len(class_names)]
        kind = _HANDLER_KINDS[index % len(_HANDLER_KINDS)]
        handler_name = f"on_{kind.value}"
        if handler_name in classes[cls_name].methods:
            continue
        param_types = HANDLER_PARAM_TYPES[kind]
        method = generator.generate(
            cls_name, handler_name, param_types,
            target_length=_jitter(rng, avg_len),
        )
        classes[cls_name].add_method(method)
        body_budget -= method.real_instruction_count()
        remaining_methods -= 1

    # Plain methods to hit the size target.
    index = 0
    while remaining_methods > 0 and body_budget > 0:
        cls_name = rng.choice(class_names)
        method_name = f"fn{index}"
        index += 1
        if method_name in classes[cls_name].methods:
            continue
        params = rng.randrange(0, 3)
        method = generator.generate(
            cls_name, method_name, ["int"] * params,
            target_length=_jitter(rng, avg_len), returns_int=bool(rng.randrange(2)),
        )
        classes[cls_name].add_method(method)
        plan.helpers.append((f"{cls_name}.{method_name}", params))
        body_budget -= method.real_instruction_count()
        remaining_methods -= 1

    _add_main(classes[class_names[0]], plan, rng)
    dex.validate()

    # Realistic asset weight: in shipping APKs, code is a small fraction
    # of the package (images/audio/data dominate); the paper's 8-13%
    # size-increase numbers are relative to such packages.
    from repro.dex.serializer import serialize_dex

    dex_bytes = len(serialize_dex(dex))
    resources = Resources(
        strings={
            "app_name": name,
            "greeting": f"Welcome to {name}, enjoy your stay with us today",
            "tagline": "the quick brown fox jumps over the lazy dog every single morning",
        },
        app_name=name,
        author=f"dev-{seed}",
        assets={
            "media.bin": rng.randbytes(dex_bytes * 18),
            "layouts.bin": rng.randbytes(dex_bytes * 4),
        },
    )
    developer_key = RSAKeyPair.generate(seed=seed + 7_000)
    apk = build_apk(dex, resources, developer_key)
    return AppBundle(
        name=name, category=category, dex=dex, resources=resources,
        developer_key=developer_key, apk=apk,
    )


def build_named_app(name: str, scale: float = 1.0) -> AppBundle:
    """One of the paper's eight apps (Tables 2-5, Figures 3-5)."""
    spec: NamedAppSpec = NAMED_APP_BY_NAME[name]
    bundle = build_app(
        name=spec.name,
        category=spec.category,
        seed=spec.seed,
        methods=max(4, round(spec.methods * scale)),
        instructions=max(80, round(spec.instructions * scale)),
        existing_qcs=max(2, round(spec.existing_qcs * scale)),
        env_vars=spec.env_vars,
    )
    if name == "AndroFish":
        _add_androfish_fish_class(bundle)
    return bundle


def generate_corpus(
    category: str,
    count: int,
    scale: float = 0.25,
    seed: int = 0,
) -> Iterator[AppBundle]:
    """Apps of one category for corpus-level experiments."""
    for index in range(count):
        yield build_app(
            name=f"{category.replace('&', '')}App{index}",
            category=category,
            seed=seed * 10_000 + index,
            scale=scale,
        )


# ---------------------------------------------------------------------------


def _identifier(name: str) -> str:
    return "".join(ch for ch in name if ch.isalnum()) or "App"


def _jitter(rng: random.Random, mean: int) -> int:
    return max(8, int(mean * rng.uniform(0.6, 1.5)))


def _declare_fields(plan: AppPlan, classes: Dict[str, DexClass], rng: random.Random) -> None:
    for cls_name, cls in classes.items():
        for word in rng.sample(_FIELD_WORDS, rng.randrange(3, 7)):
            if word in cls.fields:
                continue
            cls.add_field(DexField(name=word, static=True, initial=rng.randrange(0, 50)))
            plan.int_fields.append(f"{cls_name}.{word}")
        for word in rng.sample(_STR_FIELD_WORDS, rng.randrange(1, 3)):
            if word in cls.fields:
                continue
            cls.add_field(
                DexField(name=word, static=True, initial=rng.choice(COMMON_WORDS))
            )
            plan.str_fields.append(f"{cls_name}.{word}")


def _add_main(cls: DexClass, plan: AppPlan, rng: random.Random) -> None:
    """App entry: seed a few fields so state starts varied."""
    builder = MethodBuilder(cls.name, "main", params=0)
    for field_name in plan.int_fields[:4]:
        reg = builder.const_new(rng.randrange(0, 10))
        builder.sput(reg, field_name)
    builder.ret_void()
    cls.add_method(builder.build())


def _add_androfish_fish_class(bundle: AppBundle) -> None:
    """AndroFish's fish-state class: the six Figure 3 variables.

    ``dir`` flips between 0 and 1 (few unique values), ``width`` and
    ``height`` wander in small ranges, ``speed`` in a medium range, and
    ``posX``/``posY`` take values across 0..100000/0..160000 -- exactly
    the entropy spread Figure 3 visualizes.
    """
    dex = bundle.dex
    cls = dex.add_class(DexClass(name="Fish"))
    for name, initial in (
        ("dir", 0), ("width", 24), ("height", 16),
        ("speed", 40), ("posX", 500), ("posY", 800),
    ):
        cls.add_field(DexField(name=name, static=True, initial=initial))

    builder = MethodBuilder("Fish", "on_tick", params=1)
    millis = 0
    # dir flips when posX crosses the screen bounds.
    pos_x = builder.reg()
    builder.sget(pos_x, "Fish.posX")
    speed = builder.reg()
    builder.sget(speed, "Fish.speed")
    direction = builder.reg()
    builder.sget(direction, "Fish.dir")
    flipped = builder.fresh_label("flip")
    advance = builder.fresh_label("advance")
    builder.if_nez(direction, flipped)
    builder.add(pos_x, pos_x, speed)
    builder.goto(advance)
    builder.label(flipped)
    builder.sub(pos_x, pos_x, speed)
    builder.label(advance)
    limit = builder.const_new(100_000)
    zero = builder.const_new(0)
    in_range = builder.fresh_label("inr")
    builder.if_lt(pos_x, limit, in_range)
    one = builder.const_new(1)
    builder.sput(one, "Fish.dir")
    builder.label(in_range)
    under = builder.fresh_label("under")
    builder.if_gt(pos_x, zero, under)
    builder.sput(zero, "Fish.dir")
    builder.label(under)
    builder.sput(pos_x, "Fish.posX")
    # posY drifts with the tick argument; speed/width/height wobble.
    pos_y = builder.reg()
    builder.sget(pos_y, "Fish.posY")
    builder.add(pos_y, pos_y, millis)
    wrap = builder.reg()
    builder.rem_lit(wrap, pos_y, 160_000)
    builder.sput(wrap, "Fish.posY")
    builder.sget(speed, "Fish.speed")
    builder.add_lit(speed, speed, 3)
    builder.rem_lit(speed, speed, 200)
    builder.sput(speed, "Fish.speed")
    width = builder.reg()
    builder.sget(width, "Fish.width")
    builder.add_lit(width, width, 1)
    builder.rem_lit(width, width, 16)
    builder.add_lit(width, width, 15)
    builder.sput(width, "Fish.width")
    height = builder.reg()
    builder.sget(height, "Fish.height")
    builder.add_lit(height, height, 1)
    builder.rem_lit(height, height, 12)
    builder.add_lit(height, height, 10)
    builder.sput(height, "Fish.height")
    builder.ret_void()
    cls.add_method(builder.build())

    # Tapping a fish scores when the tap lands on its position band.
    touch = MethodBuilder("Fish", "on_touch", params=2)
    x, y = 0, 1
    band = touch.reg()
    touch.sget(band, "Fish.posX")
    touch.rem_lit(band, band, 1000)
    tap = touch.reg()
    touch.mul_lit(tap, x, 1)
    touch.rem_lit(tap, tap, 1000)
    miss = touch.fresh_label("miss")
    touch.if_ne(tap, band, miss)
    score_cls = sorted(dex.classes)[0]
    touch.label(miss)
    touch.ret_void()
    cls.add_method(touch.build())

    # Rebuild the APK so the packaged dex includes the Fish class.
    bundle.apk = build_apk(dex, bundle.resources, bundle.developer_key)
