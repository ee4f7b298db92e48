"""Classifying entailment triples into symbolic inference types.

Every record of the bundled sample corpus (one per observed type) is
classified and compared against its gold label.

Run with: python3 demos/03_classify_triples.py
"""

from amrinfer import annotate_corpus, classify, load_corpus, sample_corpus_path

records, _ = load_corpus(sample_corpus_path())

print(f"{'id':<5}{'gold':<14}{'predicted':<14}{'rule':<26}pivot")
for record in records:
    result = classify(record.triple())
    print(
        f"{record.id:<5}{record.gold_type.value:<14}{result.type.value:<14}"
        f"{result.evidence.rule:<26}P{result.pivot}"
    )

# The same thing, batched, with an aggregate report.
_, report = annotate_corpus(records)
matches = report.gold_total - len(report.gold_mismatches)
print(f"\nbatch: {matches}/{report.gold_total} gold matches")
