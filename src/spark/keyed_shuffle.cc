#include "spark/keyed_shuffle.h"

#include "common/clock.h"
#include "common/logging.h"

namespace deca::spark {

// -- KeyedShuffleWriter -------------------------------------------------------

KeyedShuffleWriter::KeyedShuffleWriter(TaskContext& tc, int shuffle_id,
                                       const ShuffleOps* ops,
                                       ShuffleLayout layout)
    : tc_(tc),
      shuffle_id_(shuffle_id),
      ops_(ops),
      budget_(tc.context()->config().shuffle_budget_bytes()) {
  size_t reducers =
      static_cast<size_t>(tc.context()->shuffle()->num_reducers(shuffle_id));
  outs_.resize(reducers);
  metas_.resize(reducers);
  if (layout == ShuffleLayout::kDecomposed) {
    entries_ = std::make_unique<DecaHashShuffleBuffer>(
        tc.heap(), ops, tc.context()->config().deca_page_bytes);
    for (auto& meta : metas_) {
      meta.fixed_record_bytes = ops->deca_key_bytes + ops->deca_value_bytes;
    }
    scratch_.resize(ops->deca_key_bytes + ops->deca_value_bytes);
  } else {
    objects_ = std::make_unique<ObjectHashShuffleBuffer>(tc.heap(), ops);
  }
}

void KeyedShuffleWriter::Insert(jvm::ObjRef key, jvm::ObjRef value) {
  DECA_DCHECK(objects_ != nullptr);
  objects_->Insert(key, value);
  if (objects_->estimated_bytes() > budget_) {
    Drain();
    objects_->Clear();
  }
}

void KeyedShuffleWriter::Insert(const uint8_t* key, const uint8_t* value) {
  DECA_DCHECK(entries_ != nullptr);
  entries_->Insert(key, value);
  if (entries_->estimated_bytes() > budget_) {
    Drain();
    entries_->Clear();
  }
}

void KeyedShuffleWriter::Drain() {
  const uint64_t reducers = outs_.size();
  if (entries_ != nullptr) {
    const uint32_t stride = ops_->deca_key_bytes + ops_->deca_value_bytes;
    entries_->ForEach([&](const uint8_t* entry) {
      outs_[ops_->deca_key_hash(entry) % reducers].WriteBytes(entry, stride);
    });
    return;
  }
  jvm::Heap* h = tc_.heap();
  objects_->ForEach([&](jvm::ObjRef k, jvm::ObjRef v) {
    size_t r = ops_->key_hash(h, k) % reducers;
    ByteWriter& w = outs_[r];
    size_t before = w.size();
    {
      ScopedTimerMs t(&tc_.metrics().ser_ms);
      ops_->serialize_key(h, k, &w);
      ops_->serialize_value(h, v, &w);
    }
    metas_[r].record_lens.push_back(static_cast<uint32_t>(w.size() - before));
  });
}

void KeyedShuffleWriter::Finish() {
  Drain();
  objects_.reset();
  entries_.reset();
  ScopedTimerMs t(&tc_.metrics().shuffle_write_ms);
  ShuffleService* shuffle = tc_.context()->shuffle();
  for (size_t r = 0; r < outs_.size(); ++r) {
    shuffle->PutChunk(shuffle_id_, static_cast<int>(r), tc_.partition(),
                      outs_[r].TakeBuffer(), metas_[r]);
  }
}

// -- KeyedShuffleReader -------------------------------------------------------

KeyedShuffleReader::KeyedShuffleReader(TaskContext& tc, int shuffle_id,
                                       const ShuffleOps* ops)
    : tc_(tc),
      shuffle_id_(shuffle_id),
      ops_(ops),
      chunks_(tc.context()->shuffle()->GetChunks(shuffle_id, tc.partition())) {
}

void KeyedShuffleReader::ForEachEntry(
    const std::function<void(const uint8_t*, const uint8_t*)>& fn) const {
  const uint32_t key_bytes = ops_->deca_key_bytes;
  const uint32_t width = key_bytes + ops_->deca_value_bytes;
  for (const auto& chunk : chunks_) {
    // A chunk that crossed a socket is peer data: check its size once
    // instead of reading up to an entry past its end.
    DECA_CHECK(width > 0 && chunk.size() % width == 0)
        << "shuffle " << shuffle_id_ << " reducer " << tc_.partition()
        << ": a " << chunk.size() << "-byte chunk does not hold whole "
        << width << "-byte entries";
    ScopedTimerMs t(&tc_.metrics().shuffle_read_ms);
    for (size_t off = 0; off < chunk.size(); off += width) {
      fn(chunk.data() + off, chunk.data() + off + key_bytes);
    }
  }
}

void KeyedShuffleReader::ForEachRecord(
    const std::function<void(jvm::ObjRef, jvm::ObjRef)>& fn) const {
  jvm::Heap* h = tc_.heap();
  for (const auto& chunk : chunks_) {
    ByteReader r(chunk.data(), chunk.size());
    while (!r.AtEnd()) {
      jvm::HandleScope scope(h);
      jvm::Handle k, v;
      {
        ScopedTimerMs t(&tc_.metrics().deser_ms);
        k = scope.Make(ops_->deserialize_key(h, &r));
        v = scope.Make(ops_->deserialize_value(h, &r));
      }
      fn(k.get(), v.get());
    }
  }
}

}  // namespace deca::spark
