// Package forum implements the paper's data-collection layer (§3.1): five
// online forums where users report smishing, each speaking its own wire
// format — Twitter's v2 search API with pagination tokens and media
// includes, Reddit's listing JSON, smishing.eu's HTML report tables,
// Pastebin's raw pastes, and Smishtank's submission API — plus one
// collector per forum that paginates, retries, rate-limit-backs-off, and
// normalizes everything into RawReports.
package forum

import (
	"time"

	"github.com/smishkit/smishkit/internal/corpus"
)

// Keywords are the four search terms the paper found most productive
// (§3.1.1). Forum servers index posts under these.
var Keywords = []string{"smishing", "phishing sms", "sms scam", "sms fraud"}

// RawReport is the normalized unit of collection: one user post that may
// contain a screenshot attachment and/or structured text fields.
type RawReport struct {
	Forum    corpus.Forum
	PostID   string
	PostedAt time.Time
	// Body is the post's own text (user commentary; may embed the SMS).
	Body string
	// Attachment is the raw screenshot bytes ("" length 0 when absent).
	Attachment []byte
	// Structured fields for forums whose reports are forms rather than
	// images (smishing.eu, Pastebin, Smishtank text reports).
	SMSText   string
	SenderID  string
	Timestamp string // as reported, needs parsing
	Brand     string // smishing.eu asks reporters for the impersonated brand
	Country   string
}

// HasAttachment reports whether the post carries an image.
func (r RawReport) HasAttachment() bool { return len(r.Attachment) > 0 }

// post is the internal seeded representation shared by all forum servers.
type post struct {
	ID         string
	CreatedAt  time.Time
	Body       string
	Attachment []byte
	SMSText    string
	SenderID   string
	Timestamp  string
	Brand      string
	Country    string
	Subreddit  string // reddit only
	IsNoise    bool   // awareness/chatter, not a genuine report
}

// postIndex resolves post IDs to positions in a server's append-only post
// slice, so per-ID requests (media, screenshots, since_id and after
// cursors) cost a map lookup instead of a scan over every post ever
// published. The first post with an ID wins; fixtures and rebased
// injection waves never repeat one.
type postIndex map[string]int

// add indexes posts, which sit at positions base, base+1, ...
func (x postIndex) add(posts []post, base int) {
	for i := range posts {
		if _, ok := x[posts[i].ID]; !ok {
			x[posts[i].ID] = base + i
		}
	}
}

// after returns the position just past the post with this ID, or 0 when
// no post has it (a cursor the server never issued restarts the walk).
func (x postIndex) after(id string) int {
	if i, ok := x[id]; ok {
		return i + 1
	}
	return 0
}

// attachment returns the attachment of the post with this ID, if it has
// one.
func (x postIndex) attachment(posts []post, id string) ([]byte, bool) {
	i, ok := x[id]
	if !ok || len(posts[i].Attachment) == 0 {
		return nil, false
	}
	return posts[i].Attachment, true
}
