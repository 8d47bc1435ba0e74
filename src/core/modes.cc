#include "src/core/modes.h"

namespace artc::core {

const char* ReplayMethodName(ReplayMethod m) {
  switch (m) {
    case ReplayMethod::kArtc:
      return "artc";
    case ReplayMethod::kSingleThreaded:
      return "single";
    case ReplayMethod::kTemporal:
      return "temporal";
    case ReplayMethod::kUnconstrained:
      return "unconstrained";
  }
  return "?";
}

bool ParseReplayMethodName(const std::string& name, ReplayMethod* out) {
  for (ReplayMethod m :
       {ReplayMethod::kArtc, ReplayMethod::kSingleThreaded,
        ReplayMethod::kTemporal, ReplayMethod::kUnconstrained}) {
    if (name == ReplayMethodName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const char* RuleTagName(RuleTag t) {
  switch (t) {
    case RuleTag::kThreadSeq:
      return "thread_seq";
    case RuleTag::kFileSeq:
      return "file_seq";
    case RuleTag::kPathStage:
      return "path_stage";
    case RuleTag::kPathName:
      return "path_name";
    case RuleTag::kFdStage:
      return "fd_stage";
    case RuleTag::kFdSeq:
      return "fd_seq";
    case RuleTag::kAioStage:
      return "aio_stage";
    case RuleTag::kMutex:
      return "mutex";
    case RuleTag::kBarrier:
      return "barrier";
    case RuleTag::kCond:
      return "cond";
    case RuleTag::kJoin:
      return "join";
    case RuleTag::kTemporal:
      return "temporal";
    case RuleTag::kCount:
      break;
  }
  return "?";
}

}  // namespace artc::core
