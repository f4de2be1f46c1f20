"""Walkthrough: automating utility/opportune triage with text models.

SMEs can label hundreds of CVEs, not hundreds of thousands. This demo
fits tf-idf + linear SVM models on a synthetic labeled corpus (the real
SME corpus is proprietary-shaped), evaluates them on a held-out split,
and predicts categories for unseen descriptions.
"""

from vulnrank.synth import synth_labeled_corpus
from vulnrank.triage import (
    Task,
    TrainConfig,
    evaluate,
    fit_vocabulary,
    predict_texts,
    split,
    train,
)

# 600 labeled examples: utility split 42/32/26, opportune 92/8.
corpus = synth_labeled_corpus(n=600, seed=42)
print(f"corpus: {len(corpus)} labeled descriptions")
description, (cve_id, judgment, _) = corpus[0]
print(f"example: {cve_id} (utility={judgment.utility}, opportune={judgment.opportune})")
print(f"  {description}\n")

train_set, test_set = split(corpus, train_fraction=0.8, seed=42)
vocab = fit_vocabulary([text for text, _ in train_set], min_df=2)
print(f"split: {len(train_set)} train / {len(test_set)} test, vocabulary {vocab.size} tokens\n")

models = {}
for task in (Task.UTILITY, Task.OPPORTUNE):
    models[task] = train(task, train_set, vocab, TrainConfig(seed=42))
    report = evaluate(models[task], test_set)
    print(f"== {task.value} model on held-out 20% ==")
    for line in report.lines():
        print(line)
    print()

# Score some fresh descriptions the models never saw.
FRESH = [
    "A flaw in Ridge gateway before 3.2 allows remote attackers to execute arbitrary code via crafted packets.",
    "A flaw in Dell console before 2.9 discloses verbose version banners and harmless build metadata to callers.",
    "The appliance ships with default credentials and a hardcoded admin password.",
]
print("== predictions on unseen text ==")
utilities = predict_texts(models[Task.UTILITY], FRESH)
opportunes = predict_texts(models[Task.OPPORTUNE], FRESH)
for text, utility, opportune in zip(FRESH, utilities, opportunes):
    print(f"utility={utility} opportune={opportune}  <- {text[:70]}...")
