"""Document corpora: the paper's running examples, generators, ingest."""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".generate": ("generate_serving_corpus", "make_deep_document",
                  "make_flat_document", "make_linked_document",
                  "make_media_document", "make_payload_block",
                  "make_random_document"),
    ".ingest": ("CORPUS_SHAPES", "INGEST_STAGES", "IngestFailure",
                "IngestReport", "IngestedDocument", "corpus_paths",
                "generate_corpus", "ingest_corpus"),
    ".news": ("NewsCorpus", "add_generic_story", "add_paintings_story",
              "declare_news_channels", "make_news_document",
              "make_paintings_fragment"),
    ".workload": ("PlacementWorkload", "SessionRequest", "WorkloadRunReport",
                  "WorkloadSpec", "build_workload", "make_topology",
                  "package_descriptor_id", "run_workload", "serve_workload",
                  "zipf_weights"),
})
