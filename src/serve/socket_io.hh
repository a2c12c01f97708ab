/**
 * @file
 * Unix-domain socket transport shared by the eipd daemon and the eipc
 * client: listen/connect on a filesystem path, and line-oriented I/O
 * matching the NDJSON framing of the eip-serve/v1 protocol. All sends
 * use MSG_NOSIGNAL so a peer hanging up surfaces as an error return,
 * never as SIGPIPE.
 */

#ifndef EIP_SERVE_SOCKET_IO_HH
#define EIP_SERVE_SOCKET_IO_HH

#include <string>

namespace eip::serve {

/** Bind + listen on @p path (unlinking a stale socket first). Returns
 *  the listening fd, or -1 with a diagnostic in @p error. */
int listenUnix(const std::string &path, std::string *error);

/** Connect to the daemon at @p path. Returns the connected fd, or -1
 *  with a diagnostic in @p error. */
int connectUnix(const std::string &path, std::string *error);

/** Send @p line plus the terminating newline, looping over partial
 *  writes. False when the peer is gone. */
bool sendLine(int fd, const std::string &line);

/** The one NDJSON framing rule: move the first newline-terminated line
 *  of @p buffer (newline stripped) into @p out and drop it from the
 *  buffer. False when no complete line is buffered yet. */
bool takeLine(std::string &buffer, std::string &out);

/** Buffered blocking reader turning a stream socket back into protocol
 *  lines (the client side; the daemon frames with takeLine directly). */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** Next newline-terminated line (newline stripped). False on EOF
     *  or a read error; a trailing unterminated fragment is dropped
     *  (a half-written request is not a request). */
    bool readLine(std::string &out);

  private:
    int fd_;
    std::string buffer_;
};

} // namespace eip::serve

#endif // EIP_SERVE_SOCKET_IO_HH
