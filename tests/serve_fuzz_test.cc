// Seeded fuzz loop over the serve wire input (src/serve/protocol.h). A
// fixed-seed corpus of frames — truncated headers, lengths above the
// cap, EOF mid-body, random payload bytes, and valid frames with mutated
// tokens — is written into a socketpair and read back through ReadFrame;
// every payload that arrives is then fed to ParseRequest and
// ParseResponse. The contract under test is the documented one:
//
//   ReadFrame      NotFound for a clean EOF between frames, IoError for a
//                  bad frame, otherwise exactly the bytes that were sent;
//   ParseRequest,  ok or InvalidArgument — never another code, never a
//   ParseResponse  crash (the asan-ubsan build checks the latter).
//
// Bounded for ctest: a few thousand small frames, one socketpair each.

#include <cstdint>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"

namespace diva {
namespace serve {
namespace {

constexpr uint64_t kSeed = 20210323;
constexpr int kCases = 3000;
/// Frame cap for the loop; every payload the corpus sends stays under it
/// and under the socketpair buffer, so one thread can write then read.
constexpr size_t kCap = 4096;

/// A connected socketpair: the test writes raw bytes into `writer` and
/// reads frames from `reader`.
class Pipe {
 public:
  Pipe() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer_ = fds[0];
    reader_ = fds[1];
  }
  ~Pipe() {
    CloseWriter();
    ::close(reader_);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  void Write(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(writer_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }
  void CloseWriter() {
    if (writer_ >= 0) ::close(writer_);
    writer_ = -1;
  }
  int reader() const { return reader_; }

 private:
  int writer_ = -1;
  int reader_ = -1;
};

std::string Header(uint32_t size) {
  return {static_cast<char>((size >> 24) & 0xff),
          static_cast<char>((size >> 16) & 0xff),
          static_cast<char>((size >> 8) & 0xff),
          static_cast<char>(size & 0xff)};
}

std::string RandomBytes(Rng* rng, size_t size) {
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng->NextBounded(256));
  return bytes;
}

/// Valid payloads of both directions, the seeds the mutator starts from.
std::vector<std::string> ValidPayloads() {
  std::vector<std::string> corpus;
  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params = {{"k", "4"}, {"seed", "7"}, {"deadline_ms", "250"}};
  corpus.push_back(EncodeRequest(anonymize));
  Request update;
  update.verb = "update";
  update.params = {{"k", "2"}};
  update.body = "- 3\n+ Male,Caucasian,46,MB,Winnipeg,Migraine\n";
  corpus.push_back(EncodeRequest(update));
  corpus.push_back(EncodeRequest(Request{"ping", {}, ""}));
  Response ok = Response::Ok();
  ok.fields = {{"snapshot", "3"}, {"rows", "10"}, {"stage_read_ms", "0.012"}};
  ok.body = "GEN,ETH\nFemale,*\n";
  corpus.push_back(EncodeResponse(ok));
  corpus.push_back(
      EncodeResponse(Response::Error(Status::Unavailable("queue full"))));
  return corpus;
}

/// Applies 1-4 random edits: overwrite, delete or insert a byte, biased
/// toward the characters the grammar splits on.
std::string Mutate(std::string payload, Rng* rng) {
  static const char kSyntax[] = {' ', '=', '\n', '\r', '\0', 'x'};
  const uint64_t edits = 1 + rng->NextBounded(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const char c = rng->NextBounded(2) == 0
                       ? kSyntax[rng->NextBounded(sizeof(kSyntax))]
                       : static_cast<char>(rng->NextBounded(256));
    const size_t at = payload.empty() ? 0 : rng->NextBounded(payload.size());
    switch (rng->NextBounded(3)) {
      case 0:
        if (!payload.empty()) payload[at] = c;
        break;
      case 1:
        if (!payload.empty()) payload.erase(at, 1);
        break;
      default:
        payload.insert(at, 1, c);
        break;
    }
  }
  return payload.substr(0, kCap);
}

/// The parser half of the contract, plus one oracle: a request that
/// parses re-encodes to a payload that parses to the same request (the
/// encoder rewrites values holding '\r', so those headers are exempt).
void ExpectParsersHold(const std::string& payload) {
  auto request = ParseRequest(payload);
  if (!request.ok()) {
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument)
        << request.status().ToString();
  } else {
    EXPECT_FALSE(request->verb.empty());
    if (payload.substr(0, payload.find('\n')).find('\r') ==
        std::string::npos) {
      auto again = ParseRequest(EncodeRequest(*request));
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->verb, request->verb);
      EXPECT_EQ(again->params, request->params);
      EXPECT_EQ(again->body, request->body);
    }
  }
  auto response = ParseResponse(payload);
  if (!response.ok()) {
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
        << response.status().ToString();
  }
}

TEST(ServeFrameFuzzTest, SeededCorpusYieldsOnlyDocumentedStatuses) {
  const std::vector<std::string> valid = ValidPayloads();
  Rng rng(kSeed);
  int delivered = 0;
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    Pipe pipe;
    std::string payload;
    bool bad_frame = true;
    switch (rng.NextBounded(6)) {
      case 0:  // truncated header
        pipe.Write(Header(static_cast<uint32_t>(rng.Next())).substr(
            0, 1 + rng.NextBounded(3)));
        break;
      case 1: {  // length above the cap
        const uint32_t size = static_cast<uint32_t>(
            kCap + 1 + rng.NextBounded(UINT32_MAX - kCap));
        pipe.Write(Header(size) + RandomBytes(&rng, rng.NextBounded(64)));
        break;
      }
      case 2: {  // EOF mid-body
        const size_t size = 1 + rng.NextBounded(kCap);
        pipe.Write(Header(static_cast<uint32_t>(size)) +
                   RandomBytes(&rng, rng.NextBounded(size)));
        break;
      }
      case 3:  // random payload bytes
        payload = RandomBytes(&rng, rng.NextBounded(256));
        bad_frame = false;
        break;
      case 4:  // a valid frame with mutated tokens
        payload = Mutate(valid[rng.NextBounded(valid.size())], &rng);
        bad_frame = false;
        break;
      default:  // no frame at all
        break;
    }
    if (!bad_frame) {
      pipe.Write(Header(static_cast<uint32_t>(payload.size())) + payload);
    }
    pipe.CloseWriter();

    auto frame = ReadFrame(pipe.reader(), kCap);
    if (bad_frame && frame.ok()) {
      // Only the empty stream reads clean — as the NotFound sentinel.
      ADD_FAILURE() << "a bad frame was accepted";
      continue;
    }
    if (!frame.ok()) {
      const StatusCode code = frame.status().code();
      EXPECT_TRUE(code == StatusCode::kIoError || code == StatusCode::kNotFound)
          << frame.status().ToString();
      EXPECT_TRUE(bad_frame) << frame.status().ToString();
      continue;
    }
    ++delivered;
    EXPECT_TRUE(*frame == payload);
    ExpectParsersHold(*frame);
    // The writer closed after one frame: a clean EOF between frames.
    auto eof = ReadFrame(pipe.reader(), kCap);
    EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  }
  // The corpus really exercised the parsers, not just the framing.
  EXPECT_GT(delivered, kCases / 4);
}

TEST(ServeFrameFuzzTest, EmptyStreamIsNotFoundAndShortStreamsAreIoErrors) {
  {
    Pipe pipe;
    pipe.CloseWriter();
    EXPECT_EQ(ReadFrame(pipe.reader()).status().code(), StatusCode::kNotFound);
  }
  for (size_t header_bytes = 1; header_bytes < 4; ++header_bytes) {
    Pipe pipe;
    pipe.Write(Header(8).substr(0, header_bytes));
    pipe.CloseWriter();
    EXPECT_EQ(ReadFrame(pipe.reader()).status().code(), StatusCode::kIoError);
  }
  {
    Pipe pipe;
    pipe.Write(Header(kCap + 1));
    pipe.CloseWriter();
    EXPECT_EQ(ReadFrame(pipe.reader(), kCap).status().code(),
              StatusCode::kIoError);
  }
}

TEST(ServeFrameFuzzTest, BackToBackFramesThenATruncatedOne) {
  // Frames on one stream are read in order; a frame cut short after
  // them fails alone, without disturbing the ones before it.
  Rng rng(kSeed + 1);
  std::vector<std::string> payloads;
  Pipe pipe;
  for (int i = 0; i < 32; ++i) {
    payloads.push_back(RandomBytes(&rng, rng.NextBounded(96)));
    pipe.Write(Header(static_cast<uint32_t>(payloads.back().size())) +
               payloads.back());
  }
  pipe.Write(Header(40) + "cut short");
  pipe.CloseWriter();
  for (const std::string& payload : payloads) {
    auto frame = ReadFrame(pipe.reader(), kCap);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_TRUE(*frame == payload);
  }
  EXPECT_EQ(ReadFrame(pipe.reader(), kCap).status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace serve
}  // namespace diva
