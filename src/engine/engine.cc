#include "engine/engine.h"

#include "parser/analyzer.h"

namespace saql {

SaqlEngine::SaqlEngine(Options options) : core_(std::move(options)) {}

SaqlEngine::~SaqlEngine() = default;

Status SaqlEngine::AddQuery(const std::string& text, const std::string& name,
                            std::vector<Diagnostic>* diagnostics) {
  SAQL_ASSIGN_OR_RETURN(AnalyzedQueryPtr aq, CompileSaql(text));
  return AddAnalyzedQuery(std::move(aq), name, diagnostics);
}

Status SaqlEngine::AddAnalyzedQuery(AnalyzedQueryPtr aq,
                                    const std::string& name,
                                    std::vector<Diagnostic>* diagnostics) {
  if (ran_) {
    return Status::FailedPrecondition(
        "engine already ran: Run() is one-shot; register queries before "
        "Run, or use OpenSession() for long-lived deployments");
  }
  if (core_.session_count() > 0) {
    return Status::FailedPrecondition(
        "sessions are open: use Session::AddQuery to attach a query "
        "mid-stream (engine-level registration covers future sessions "
        "only)");
  }
  return core_.RegisterQuery(std::move(aq), name, diagnostics);
}

void SaqlEngine::SetAlertSink(AlertSink sink) {
  core_.SetAlertSink(std::move(sink));
}

Result<std::unique_ptr<SaqlEngine::Session>> SaqlEngine::OpenSession(
    SessionOptions options) {
  if (ran_) {
    return Status::FailedPrecondition(
        "engine already ran: Run() is one-shot and final; use sessions "
        "from the start for multi-run lifecycles");
  }
  auto session =
      std::unique_ptr<Session>(new Session(this, std::move(options)));
  Status st = session->OpenInternal();
  if (!st.ok()) return st;
  session->open_ = true;
  return session;
}

Status SaqlEngine::Run(EventSource* source) {
  if (ran_) {
    return Status::FailedPrecondition(
        "SaqlEngine::Run is one-shot and this engine already ran; use "
        "OpenSession() for repeated or long-lived runs");
  }
  if (core_.session_count() > 0) {
    return Status::FailedPrecondition(
        "a session is open; push events through it instead of Run");
  }
  if (core_.sessions_opened() > 0) {
    return Status::FailedPrecondition(
        "this engine is driven through sessions; Run's one-shot contract "
        "applies to fresh engines only");
  }
  if (core_.num_queries() == 0) {
    return Status::InvalidArgument("no queries registered");
  }
  SAQL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, OpenSession());
  ran_ = true;
  while (EventBlock* block = source->NextBlock(core_.options().batch_size)) {
    if (block->empty()) continue;
    Status st = session->Push(*block);
    if (!st.ok()) return st;
    st = session->AdvanceWatermark(session->max_event_ts());
    if (!st.ok()) return st;
  }
  return session->Close();
}

}  // namespace saql
