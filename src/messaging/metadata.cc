#include "messaging/metadata.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace liquid::messaging {

namespace {

std::string JoinInts(const std::vector<int>& values) {
  std::ostringstream out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    out << values[i];
  }
  return out.str();
}

Result<std::vector<int>> SplitInts(const std::string& text) {
  std::vector<int> out;
  if (text.empty()) return out;
  out.reserve(static_cast<size_t>(
                  std::count(text.begin(), text.end(), ',')) + 1);
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) return Status::Corruption("empty int in list");
    out.push_back(std::atoi(item.c_str()));
  }
  return out;
}

}  // namespace

std::string PartitionState::Serialize() const {
  std::ostringstream out;
  out << leader << ';' << leader_epoch << ';' << JoinInts(replicas) << ';'
      << JoinInts(isr);
  return out.str();
}

Result<PartitionState> PartitionState::Parse(const std::string& data) {
  std::istringstream in(data);
  std::string leader_s, epoch_s, replicas_s, isr_s;
  if (!std::getline(in, leader_s, ';') || !std::getline(in, epoch_s, ';') ||
      !std::getline(in, replicas_s, ';')) {
    return Status::Corruption("bad partition state: " + data);
  }
  std::getline(in, isr_s, ';');  // May legitimately be empty.
  PartitionState state;
  state.leader = std::atoi(leader_s.c_str());
  state.leader_epoch = std::atoi(epoch_s.c_str());
  LIQUID_ASSIGN_OR_RETURN(state.replicas, SplitInts(replicas_s));
  LIQUID_ASSIGN_OR_RETURN(state.isr, SplitInts(isr_s));
  return state;
}

bool FetchResponse::Visible(const storage::BatchFrame& frame) const {
  if (frame.is_control) return false;
  for (const AbortedTxn& txn : aborted) {
    if (frame.producer_id == txn.pid && frame.offset >= txn.first_offset &&
        frame.offset < txn.last_offset) {
      return false;
    }
  }
  return true;
}

Status FetchResponse::DecodeRecords(std::vector<storage::Record>* out) const {
  for (const storage::EncodedBatch& batch : batches) {
    // Decode the whole batch in one pass (hidden frames are rare), then
    // close the holes the hidden ones leave; record i is frame i.
    const size_t first = out->size();
    LIQUID_RETURN_NOT_OK(batch.DecodeAll(out));
    size_t kept = first;
    for (size_t i = 0; i < batch.frames().size(); ++i) {
      if (!Visible(batch.frames()[i])) continue;
      if (kept != first + i) (*out)[kept] = std::move((*out)[first + i]);
      ++kept;
    }
    out->resize(kept);
  }
  return Status::OK();
}

}  // namespace liquid::messaging
