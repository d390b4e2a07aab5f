#include "wal/log_record.h"

#include "util/coding.h"
#include "util/json.h"
#include "util/string_util.h"

namespace mmdb {

LogRecord LogRecord::Update(TxnId txn, RecordId record, std::string image) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = txn;
  r.record_id = record;
  r.image = std::move(image);
  return r;
}

DataRecordView DataRecordView::Update(TxnId txn, RecordId record,
                                     std::string_view image) {
  DataRecordView r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = txn;
  r.record_id = record;
  r.image = image;
  return r;
}

LogRecord LogRecord::Delta(TxnId txn, RecordId record, uint32_t field_offset,
                           int64_t delta) {
  LogRecord r;
  r.type = LogRecordType::kDelta;
  r.txn_id = txn;
  r.record_id = record;
  r.field_offset = field_offset;
  r.delta = delta;
  return r;
}

LogRecord LogRecord::Commit(TxnId txn) {
  LogRecord r;
  r.type = LogRecordType::kCommit;
  r.txn_id = txn;
  return r;
}

LogRecord LogRecord::Abort(TxnId txn) {
  LogRecord r;
  r.type = LogRecordType::kAbort;
  r.txn_id = txn;
  return r;
}

LogRecord LogRecord::BeginCheckpoint(CheckpointId id, Timestamp tau,
                                     std::vector<ActiveTxnEntry> active) {
  LogRecord r;
  r.type = LogRecordType::kBeginCheckpoint;
  r.checkpoint_id = id;
  r.timestamp = tau;
  r.active_txns = std::move(active);
  return r;
}

LogRecord LogRecord::EndCheckpoint(CheckpointId id) {
  LogRecord r;
  r.type = LogRecordType::kEndCheckpoint;
  r.checkpoint_id = id;
  return r;
}

namespace {

// The prefix every payload carries: type, lsn, txn; and its size.
void EncodePrefix(std::string* dst, LogRecordType type, Lsn lsn,
                  TxnId txn_id) {
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, lsn);
  PutVarint64(dst, txn_id);
}

size_t PrefixSize(Lsn lsn, TxnId txn_id) {
  return 1 + VarintLength(lsn) + VarintLength(txn_id);
}

bool IsDataRecord(LogRecordType type) {
  return type == LogRecordType::kUpdate || type == LogRecordType::kDelta;
}

Status DecodePrefix(std::string_view* payload, LogRecordType* type, Lsn* lsn,
                    TxnId* txn_id) {
  if (payload->empty()) return CorruptionError("empty log record payload");
  uint8_t raw_type = static_cast<uint8_t>(payload->front());
  payload->remove_prefix(1);
  if (raw_type < static_cast<uint8_t>(LogRecordType::kUpdate) ||
      raw_type > static_cast<uint8_t>(LogRecordType::kDelta)) {
    return CorruptionError(
        StringPrintf("unknown log record type %u", raw_type));
  }
  *type = static_cast<LogRecordType>(raw_type);
  if (!GetVarint64(payload, lsn) || !GetVarint64(payload, txn_id)) {
    return CorruptionError("truncated log record header");
  }
  return Status::OK();
}

// The rest of an UPDATE or DELTA payload after the prefix; out->type must
// already be set.
Status DecodeDataBody(std::string_view* payload, DataRecordView* out) {
  switch (out->type) {
    case LogRecordType::kUpdate:
      if (!GetVarint64(payload, &out->record_id) ||
          !GetLengthPrefixed(payload, &out->image)) {
        return CorruptionError("truncated update record");
      }
      return Status::OK();
    case LogRecordType::kDelta: {
      uint64_t raw_delta;
      if (!GetVarint64(payload, &out->record_id) ||
          !GetVarint32(payload, &out->field_offset) ||
          !GetFixed64(payload, &raw_delta)) {
        return CorruptionError("truncated delta record");
      }
      out->delta = static_cast<int64_t>(raw_delta);
      return Status::OK();
    }
    default:
      return InvalidArgumentError(
          StringPrintf("log record %llu is not a data record",
                       static_cast<unsigned long long>(out->lsn)));
  }
}

Status CheckConsumed(std::string_view payload) {
  if (!payload.empty()) {
    return CorruptionError("trailing bytes after log record payload");
  }
  return Status::OK();
}

}  // namespace

Status LogRecordHeader::DecodeFrom(std::string_view payload,
                                   LogRecordHeader* out) {
  *out = LogRecordHeader();
  MMDB_RETURN_IF_ERROR(
      DecodePrefix(&payload, &out->type, &out->lsn, &out->txn_id));
  if (IsDataRecord(out->type) && !GetVarint64(&payload, &out->record_id)) {
    return CorruptionError("truncated data record header");
  }
  return Status::OK();
}

void DataRecordView::EncodeTo(std::string* dst) const {
  EncodePrefix(dst, type, lsn, txn_id);
  PutVarint64(dst, record_id);
  if (type == LogRecordType::kUpdate) {
    PutLengthPrefixed(dst, image);
  } else {
    PutVarint32(dst, field_offset);
    PutFixed64(dst, static_cast<uint64_t>(delta));
  }
}

size_t DataRecordView::EncodedSize() const {
  size_t size = PrefixSize(lsn, txn_id) + VarintLength(record_id);
  if (type == LogRecordType::kUpdate) {
    size += VarintLength(image.size()) + image.size();
  } else {
    size += VarintLength(field_offset) + 8;
  }
  return size;
}

DataRecordView LogRecord::data_view() const {
  DataRecordView v;
  v.type = type;
  v.lsn = lsn;
  v.txn_id = txn_id;
  v.record_id = record_id;
  v.image = image;
  v.field_offset = field_offset;
  v.delta = delta;
  return v;
}

void LogRecord::EncodeTo(std::string* dst) const {
  if (IsDataRecord(type)) {
    data_view().EncodeTo(dst);
    return;
  }
  EncodePrefix(dst, type, lsn, txn_id);
  switch (type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kDelta:
      break;  // encoded above
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kBeginCheckpoint:
      PutVarint64(dst, checkpoint_id);
      PutVarint64(dst, timestamp);
      PutVarint64(dst, active_txns.size());
      for (const ActiveTxnEntry& e : active_txns) {
        PutVarint64(dst, e.txn_id);
        PutVarint64(dst, e.first_lsn);
      }
      break;
    case LogRecordType::kEndCheckpoint:
      PutVarint64(dst, checkpoint_id);
      break;
  }
}

Status DataRecordView::DecodeFrom(std::string_view payload,
                                  DataRecordView* out) {
  *out = DataRecordView();
  MMDB_RETURN_IF_ERROR(
      DecodePrefix(&payload, &out->type, &out->lsn, &out->txn_id));
  MMDB_RETURN_IF_ERROR(DecodeDataBody(&payload, out));
  return CheckConsumed(payload);
}

Status LogRecord::DecodeFrom(std::string_view payload, LogRecord* out) {
  *out = LogRecord();
  MMDB_RETURN_IF_ERROR(
      DecodePrefix(&payload, &out->type, &out->lsn, &out->txn_id));
  switch (out->type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kDelta: {
      DataRecordView data;
      data.type = out->type;
      data.lsn = out->lsn;
      MMDB_RETURN_IF_ERROR(DecodeDataBody(&payload, &data));
      out->record_id = data.record_id;
      out->image.assign(data.image.data(), data.image.size());
      out->field_offset = data.field_offset;
      out->delta = data.delta;
      break;
    }
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kBeginCheckpoint: {
      uint64_t count;
      if (!GetVarint64(&payload, &out->checkpoint_id) ||
          !GetVarint64(&payload, &out->timestamp) ||
          !GetVarint64(&payload, &count)) {
        return CorruptionError("truncated begin-checkpoint record");
      }
      out->active_txns.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        ActiveTxnEntry e;
        if (!GetVarint64(&payload, &e.txn_id) ||
            !GetVarint64(&payload, &e.first_lsn)) {
          return CorruptionError("truncated active-transaction list");
        }
        out->active_txns.push_back(e);
      }
      break;
    }
    case LogRecordType::kEndCheckpoint:
      if (!GetVarint64(&payload, &out->checkpoint_id)) {
        return CorruptionError("truncated end-checkpoint record");
      }
      break;
  }
  return CheckConsumed(payload);
}

size_t LogRecord::EncodedSize() const {
  // Mirrors EncodeTo arithmetically — exact, without materializing the
  // bytes (this runs per Append to pre-reserve the frame).
  if (IsDataRecord(type)) return data_view().EncodedSize();
  size_t size = PrefixSize(lsn, txn_id);
  switch (type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kDelta:
      break;  // sized above
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    case LogRecordType::kBeginCheckpoint:
      size += VarintLength(checkpoint_id) + VarintLength(timestamp) +
              VarintLength(active_txns.size());
      for (const ActiveTxnEntry& e : active_txns) {
        size += VarintLength(e.txn_id) + VarintLength(e.first_lsn);
      }
      break;
    case LogRecordType::kEndCheckpoint:
      size += VarintLength(checkpoint_id);
      break;
  }
  return size;
}

std::string LogRecord::DebugString() const {
  switch (type) {
    case LogRecordType::kUpdate:
      return StringPrintf("UPDATE lsn=%llu txn=%llu rec=%llu (%zu bytes)",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id),
                          static_cast<unsigned long long>(record_id),
                          image.size());
    case LogRecordType::kCommit:
      return StringPrintf("COMMIT lsn=%llu txn=%llu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id));
    case LogRecordType::kAbort:
      return StringPrintf("ABORT lsn=%llu txn=%llu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id));
    case LogRecordType::kBeginCheckpoint:
      return StringPrintf("BEGIN_CKPT lsn=%llu id=%llu tau=%llu active=%zu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(checkpoint_id),
                          static_cast<unsigned long long>(timestamp),
                          active_txns.size());
    case LogRecordType::kEndCheckpoint:
      return StringPrintf("END_CKPT lsn=%llu id=%llu",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(checkpoint_id));
    case LogRecordType::kDelta:
      return StringPrintf("DELTA lsn=%llu txn=%llu rec=%llu off=%u %+lld",
                          static_cast<unsigned long long>(lsn),
                          static_cast<unsigned long long>(txn_id),
                          static_cast<unsigned long long>(record_id),
                          field_offset, static_cast<long long>(delta));
  }
  return "INVALID";
}

void LogRecord::AppendJsonTo(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("type");
  writer->String(LogRecordTypeName(type));
  writer->Key("lsn");
  writer->Uint(lsn);
  switch (type) {
    case LogRecordType::kUpdate:
      writer->Key("txn");
      writer->Uint(txn_id);
      writer->Key("record");
      writer->Uint(record_id);
      writer->Key("image_bytes");
      writer->Uint(image.size());
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      writer->Key("txn");
      writer->Uint(txn_id);
      break;
    case LogRecordType::kBeginCheckpoint:
      writer->Key("checkpoint");
      writer->Uint(checkpoint_id);
      writer->Key("tau");
      writer->Uint(timestamp);
      writer->Key("active_txns");
      writer->BeginArray();
      for (const ActiveTxnEntry& e : active_txns) {
        writer->Uint(e.txn_id);
      }
      writer->EndArray();
      break;
    case LogRecordType::kEndCheckpoint:
      writer->Key("checkpoint");
      writer->Uint(checkpoint_id);
      break;
    case LogRecordType::kDelta:
      writer->Key("txn");
      writer->Uint(txn_id);
      writer->Key("record");
      writer->Uint(record_id);
      writer->Key("field_offset");
      writer->Uint(field_offset);
      writer->Key("delta");
      writer->Int(delta);
      break;
  }
  writer->EndObject();
}

}  // namespace mmdb
