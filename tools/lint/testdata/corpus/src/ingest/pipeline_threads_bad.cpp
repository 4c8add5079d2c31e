// Positive fixture: src/ingest/pipeline is no longer a seam. The capture
// pipeline runs on its caller's thread (ShardedReplay is the multi-core
// datapath), so a thread or namespace-scope mutable state in it is
// flagged like in any other sequential file.
#include <thread>

namespace syndog::ingest {

int corpus_pipeline_batches = 0;  // EXPECT(concurrency.shared_mutable_static)

void corpus_pipeline_pump() {
  std::thread producer([] {});  // EXPECT(concurrency.raw_thread)
  producer.join();
}

}  // namespace syndog::ingest
