"""Observation serialization, prompt assembly, and reply parsing."""

from __future__ import annotations

import functools
import math
import re
from enum import Enum
from pathlib import Path

from ..env import ACTION_HIGH, ACTION_LOW, StepRecord, format_clock

_TEMPLATE_DIR = Path(__file__).parent / "templates"


class PromptKind(str, Enum):
    BASE_ZERO_SHOT = "base"
    PRIOR_ZERO_SHOT = "prior"
    PRIOR_COT = "cot"
    PRIOR_MEAL_COT = "meal-cot"


class ParseStatus(str, Enum):
    OK = "ok"
    CLAMPED = "clamped"
    UNPARSEABLE = "unparseable"
    FALLBACK_USED = "fallback_used"


# (system template, request template) per prompt kind.
_TEMPLATE_FILES = {
    PromptKind.BASE_ZERO_SHOT: ("system_base.txt", "request_zero_shot.txt"),
    PromptKind.PRIOR_ZERO_SHOT: ("system_prior.txt", "request_zero_shot.txt"),
    PromptKind.PRIOR_COT: ("system_prior.txt", "request_cot.txt"),
    PromptKind.PRIOR_MEAL_COT: ("system_prior.txt", "request_meal_cot.txt"),
}

_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?")
_ANS_RE = re.compile(r"<ans>(.*?)</ans>", re.DOTALL)
_TAIL_WINDOW = 200


@functools.cache
def _read_template(name: str) -> str:
    return (_TEMPLATE_DIR / name).read_text().rstrip("\n")


def load_templates(kind: PromptKind) -> tuple[str, str]:
    """(system, request) template text; each file is read from disk once."""
    system_file, request_file = _TEMPLATE_FILES[PromptKind(kind)]
    return _read_template(system_file), _read_template(request_file)


def _line(rec: StepRecord, include_meals: bool) -> str:
    day, clock = format_clock(rec.clock)
    time_part = f"Time: {clock}"
    if rec.step == 0:
        time_part += " (initial measurement)"
    line = (f"Day {day}, {time_part}, glucose: {rec.bg_sensor:.2f} mg/dL, "
            f"insulin rate: {rec.rate:.4f} unit/hour, "
            f"insulin dose: {rec.dose:.2f} unit")
    if include_meals and rec.meal_carbs > 0:
        line += ", meal taken"
    return line + "."


def serialize_observation(history: list[StepRecord], include_meals: bool,
                          finished: list[str]) -> str:
    """One line per 15-minute step in the EHR-style text layout.

    The first line carries the "(initial measurement)" annotation. With
    include_meals, steps whose interval contained food get a trailing
    ", meal taken" clause (amount deliberately hidden).

    ``finished`` holds the lines of the episode's finished rows: ``[]`` on
    the episode's first call, then the same list on every later call with
    the same, growing history. A row is finished once a later row exists (the
    env writes the rate and dose only into the last row), so the call appends
    the lines of the rows finished since the last call and formats only the
    current row anew.
    """
    if not history:
        raise ValueError("history must contain at least one step")
    for rec in history[len(finished):-1]:
        finished.append(_line(rec, include_meals))
    return "\n".join([*finished, _line(history[-1], include_meals)])


def build_prompt(kind: PromptKind, obs_text: str) -> list[dict]:
    """Message list for the chat API: system text plus the request block."""
    kind = PromptKind(kind)
    system, request = load_templates(kind)
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": request.format(observations=obs_text)},
    ]


def parse_zero_shot(text: str) -> float | None:
    """First numeric literal in the reply, or None if there is none."""
    match = _NUMBER_RE.search(text)
    if match is None:
        return None
    return float(match.group(0))


def parse_cot(text: str) -> float | None:
    """Dose from the last well-formed <ans> tag.

    Falls back to first-numeral extraction over the reply's tail when no tag
    parses; returns None if nothing numeric is found anywhere.
    """
    for span in reversed(_ANS_RE.findall(text)):
        inner = span.strip()
        if _NUMBER_RE.fullmatch(inner):
            return float(inner)
    return parse_zero_shot(text[-_TAIL_WINDOW:])


def clamp_action(dose: float) -> tuple[float, ParseStatus]:
    """Clamp into the dose range; flags whether clamping changed the value."""
    if not math.isfinite(dose):
        return ACTION_LOW, ParseStatus.UNPARSEABLE
    clamped = min(max(dose, ACTION_LOW), ACTION_HIGH)
    status = ParseStatus.CLAMPED if clamped != dose else ParseStatus.OK
    return clamped, status
