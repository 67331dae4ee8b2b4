"""SPARQL front end: tokenizer, parser, AST, serializer, and the
reference engine's in-memory operators (:mod:`repro.sparql.evaluator`)."""
