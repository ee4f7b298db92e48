"""The corpus pipeline end to end: load, annotate, report, emit prompts.

Run with: python3 demos/05_pipeline_and_prompts.py
"""

from amrinfer import (
    InjectionMode,
    annotate_corpus,
    compute_stats,
    emit_prompts,
    load_corpus,
    sample_corpus_path,
)

records, errors = load_corpus(sample_corpus_path())
print(f"loaded {len(records)} records ({len(errors)} bad lines skipped)\n")

annotated, report = annotate_corpus(records)
print(compute_stats(report))

# Prompt emission in the four injection modes. EP puts the type phrase in
# front of the premises; DP and DE put it at the head or tail of the
# target; NONE omits it.
record = annotated[0]
for mode in InjectionMode:
    prompt = emit_prompts([record], mode)[0]
    print(f"\n--- {mode.name} ---")
    print("input: ", prompt.input)
    print("target:", prompt.target)
