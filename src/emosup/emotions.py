"""The seven emotion categories and the fixed prompt template."""

from __future__ import annotations

from enum import IntEnum


class EmotionLabel(IntEnum):
    """Emotion categories with stable integer codes."""

    neutral = 0
    angry = 1
    disgusted = 2
    fear = 3
    happy = 4
    sad = 5
    surprised = 6


EMOTIONS: tuple[EmotionLabel, ...] = tuple(EmotionLabel)
# canonical name -> label, the one table that names are read from
EMOTION_BY_NAME: dict[str, EmotionLabel] = {e.name: e for e in EMOTIONS}

PROMPT_TEMPLATE = "a photo of a {} face"
EMOTION_WORD_POSITION = 4  # index of the emotion word in the template's word list


def prompt_for(emotion: EmotionLabel) -> str:
    """Prompt text for one emotion, e.g. 'a photo of a happy face'."""
    return PROMPT_TEMPLATE.format(EmotionLabel(emotion).name)


def parse_emotion(name: str) -> EmotionLabel:
    """The label of a canonical emotion name. Any other value raises
    ValueError, an unhashable one TypeError."""
    try:
        return EMOTION_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown emotion {name!r}; expected one of "
                         f"{[e.name for e in EMOTIONS]}") from None

