#ifndef SAQL_TESTS_TEST_UTIL_H_
#define SAQL_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/event.h"
#include "core/interner.h"
#include "engine/compiled_query.h"
#include "stream/event_source.h"
#include "stream/stream_executor.h"

namespace saql {
namespace testing {

/// Reads one of the checked-in paper queries (queries/*.saql).
inline std::string ReadQueryFile(const std::string& filename) {
  std::ifstream in(std::string(SAQL_QUERY_DIR) + "/" + filename);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Fluent builder for events in tests.
class EventBuilder {
 public:
  EventBuilder& Id(uint64_t id) {
    event_.id = id;
    return *this;
  }
  EventBuilder& At(Timestamp ts) {
    event_.ts = ts;
    return *this;
  }
  EventBuilder& OnHost(std::string agent) {
    event_.agent_id = std::move(agent);
    return *this;
  }
  EventBuilder& Subject(std::string exe, int64_t pid = 100) {
    event_.subject.exe_name = std::move(exe);
    event_.subject.pid = pid;
    return *this;
  }
  EventBuilder& Op(EventOp op) {
    event_.op = op;
    return *this;
  }
  EventBuilder& FileObject(std::string path) {
    event_.object_type = EntityType::kFile;
    event_.obj_file.path = std::move(path);
    return *this;
  }
  EventBuilder& ProcObject(std::string exe, int64_t pid = 200) {
    event_.object_type = EntityType::kProcess;
    event_.obj_proc.exe_name = std::move(exe);
    event_.obj_proc.pid = pid;
    return *this;
  }
  EventBuilder& NetObject(std::string dst_ip, int64_t dst_port = 443) {
    event_.object_type = EntityType::kNetwork;
    event_.obj_net.dst_ip = std::move(dst_ip);
    event_.obj_net.dst_port = dst_port;
    event_.obj_net.src_ip = "10.0.0.1";
    event_.obj_net.src_port = 50000;
    return *this;
  }
  EventBuilder& Amount(int64_t amount) {
    event_.amount = amount;
    return *this;
  }
  Event Build() const { return event_; }

 private:
  Event event_{};
};

/// Compiles a SAQL query, failing the current test (non-fatally) on
/// error; returns null on failure.
inline std::unique_ptr<CompiledQuery> CompileQuery(const std::string& text,
                                                   const std::string& name) {
  Result<AnalyzedQueryPtr> aq = CompileSaql(text);
  EXPECT_TRUE(aq.ok()) << text << "\n" << aq.status();
  if (!aq.ok()) return nullptr;
  Result<std::unique_ptr<CompiledQuery>> q =
      CompiledQuery::Create(aq.value(), name);
  EXPECT_TRUE(q.ok()) << q.status();
  if (!q.ok()) return nullptr;
  return std::move(q).value();
}

/// Binds every query to `interner`, as a session does when it wires them.
inline void BindQueries(const std::vector<CompiledQuery*>& queries,
                        Interner& interner) {
  for (CompiledQuery* q : queries) q->ReInternSymbols(interner);
}

// Brute-force member-matching oracle shared by the ConstraintIndex
// differential and property suites: both must compare the index against
// the SAME reference, or the two suites could silently disagree about
// what "correct" means. Mirrors the single-pattern CompiledQuery::OnEvent
// evaluation order (global constraints, then the pattern's constraints);
// the structural shape is assumed already checked by the group master.

inline bool BruteForcePassesGlobal(const CompiledQuery& q,
                                   const Event& event) {
  for (const CompiledConstraint& c : q.global_constraints()) {
    if (!c.MatchesEvent(event)) return false;
  }
  return true;
}

inline bool BruteForceMatches(const CompiledQuery& q, const Event& event) {
  return BruteForcePassesGlobal(q, event) &&
         q.patterns()[0].Matches(event);
}

/// Reads member bit `i` of a ConstraintIndex::MatchResult bitset.
inline bool BitAt(const std::vector<uint64_t>& bits, size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1;
}

/// Drives `exec` step-wise over `source` to exhaustion: one batch and one
/// watermark advance to the max event time per pulled block, then end of
/// stream.
inline void DriveToEnd(StreamExecutor* exec, EventSource* source,
                       size_t batch_size = 1024) {
  exec->BeginStream();
  while (EventBlock* block = source->NextBlock(batch_size)) {
    exec->ProcessBatch(block->MutableRows(), block->size());
    exec->AdvanceWatermark(exec->max_event_ts());
  }
  exec->FinishStream();
}

}  // namespace testing
}  // namespace saql

#endif  // SAQL_TESTS_TEST_UTIL_H_
