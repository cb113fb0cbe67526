#include "storage/journal.h"

#include "storage/record_log.h"
#include "util/codec.h"

namespace rfid::storage {

std::string encode_record(const JournalRecord& record) {
  return frame_record(util::encode(record));
}

JournalScan scan_journal(std::string_view bytes) {
  return scan_record_log<JournalScan>(bytes, kJournalMagic,
                                      util::decode<JournalRecord>);
}

}  // namespace rfid::storage
